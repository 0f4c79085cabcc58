// Test helper: seals a sandbox the one way the monitor allows.
#ifndef EREBOR_TESTS_CLIENT_DATA_H_
#define EREBOR_TESTS_CLIENT_DATA_H_

#include "src/sim/world.h"

namespace erebor {

// A client attests through the monitor's proxy entry points on vCPU `cpu` and
// delivers `data` as its first sealed record, which seals the sandbox.
inline Status InstallClientData(World& world, Sandbox& sandbox, const Bytes& data,
                                int cpu = 0) {
  ClientSession session(world, sandbox.id, /*seed=*/1, &world.machine().cpu(cpu));
  EREBOR_RETURN_IF_ERROR(session.Handshake());
  return session.Send(data);
}

}  // namespace erebor

#endif  // EREBOR_TESTS_CLIENT_DATA_H_
