// Non-owning reference to a callable, for hot paths that take a callback and
// invoke it before returning (the EMC dispatch body, the PTE writer).
//
// A FunctionRef is two words: a pointer to the callable and a pointer to a
// trampoline that invokes it. It never copies or allocates, so it is only
// valid while the referenced callable lives. Taking a lambda as a FunctionRef
// parameter is safe (the temporary outlives the call); storing a FunctionRef
// past the call that received it is not.
#ifndef EREBOR_SRC_COMMON_FUNCTION_REF_H_
#define EREBOR_SRC_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace erebor {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& callable) noexcept  // NOLINT(google-explicit-constructor)
      : callable_(const_cast<void*>(static_cast<const void*>(std::addressof(callable)))),
        invoke_(&Invoke<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const { return invoke_(callable_, std::forward<Args>(args)...); }

 private:
  template <typename F>
  static R Invoke(void* callable, Args... args) {
    return (*static_cast<F*>(callable))(std::forward<Args>(args)...);
  }

  void* callable_;
  R (*invoke_)(void*, Args...);
};

}  // namespace erebor

#endif  // EREBOR_SRC_COMMON_FUNCTION_REF_H_
