#include "src/kernel/image.h"

#include <cstring>

#include "src/common/rng.h"
#include "src/kernel/layout.h"

namespace erebor {

namespace {

constexpr char kMagic[4] = {'K', 'E', 'L', 'F'};

}  // namespace

Bytes KernelImage::Serialize() const {
  // Exact-size the buffer and write by offset: one allocation, no reallocating
  // insert() growth (which GCC's -Werror stringop-overflow analysis flags with
  // false positives on empty vectors).
  size_t total = 4 + 4 + 4;
  for (const auto& section : sections) {
    total += 4 + section.name.size() + 4 + 8 + 4 + section.data.size();
  }
  for (const auto& symbol : symbols) {
    total += 4 + symbol.name.size() + 8 + 4;
  }
  Bytes out(total);
  size_t off = 0;
  auto put_raw = [&](const void* p, size_t n) {
    if (n != 0) {
      std::memcpy(out.data() + off, p, n);
      off += n;
    }
  };
  put_raw(kMagic, 4);
  auto put32 = [&](uint32_t v) {
    uint8_t tmp[4];
    StoreLe32(tmp, v);
    put_raw(tmp, 4);
  };
  auto put64 = [&](uint64_t v) {
    uint8_t tmp[8];
    StoreLe64(tmp, v);
    put_raw(tmp, 8);
  };
  auto put_string = [&](const std::string& s) {
    put32(static_cast<uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  };

  put32(static_cast<uint32_t>(sections.size()));
  for (const auto& section : sections) {
    put_string(section.name);
    put32((section.executable ? 1u : 0u) | (section.writable ? 2u : 0u));
    put64(section.vaddr);
    put32(static_cast<uint32_t>(section.data.size()));
    put_raw(section.data.data(), section.data.size());
  }
  put32(static_cast<uint32_t>(symbols.size()));
  for (const auto& symbol : symbols) {
    put_string(symbol.name);
    put64(symbol.vaddr);
    put32(symbol.size);
  }
  return out;
}

StatusOr<KernelImage> KernelImage::Deserialize(const Bytes& raw) {
  size_t pos = 0;
  auto need = [&](size_t n) -> bool { return pos + n <= raw.size(); };
  auto get32 = [&]() -> uint32_t {
    const uint32_t v = LoadLe32(raw.data() + pos);
    pos += 4;
    return v;
  };
  auto get64 = [&]() -> uint64_t {
    const uint64_t v = LoadLe64(raw.data() + pos);
    pos += 8;
    return v;
  };

  if (!need(8) || std::memcmp(raw.data(), kMagic, 4) != 0) {
    return InvalidArgumentError("bad KELF magic");
  }
  pos = 4;
  KernelImage image;
  const uint32_t num_sections = get32();
  if (num_sections > 1024) {
    return InvalidArgumentError("implausible section count");
  }
  for (uint32_t i = 0; i < num_sections; ++i) {
    KernelSection section;
    if (!need(4)) {
      return InvalidArgumentError("truncated section name length");
    }
    const uint32_t name_len = get32();
    if (!need(name_len)) {
      return InvalidArgumentError("truncated section name");
    }
    section.name.assign(raw.begin() + pos, raw.begin() + pos + name_len);
    pos += name_len;
    if (!need(16)) {
      return InvalidArgumentError("truncated section header");
    }
    const uint32_t flags = get32();
    section.executable = (flags & 1u) != 0;
    section.writable = (flags & 2u) != 0;
    section.vaddr = get64();
    const uint32_t size = get32();
    if (!need(size)) {
      return InvalidArgumentError("truncated section data");
    }
    section.data.assign(raw.begin() + pos, raw.begin() + pos + size);
    pos += size;
    image.sections.push_back(std::move(section));
  }
  if (!need(4)) {
    return InvalidArgumentError("truncated symbol table");
  }
  const uint32_t num_symbols = get32();
  if (num_symbols > 65536) {
    return InvalidArgumentError("implausible symbol count");
  }
  for (uint32_t i = 0; i < num_symbols; ++i) {
    KernelSymbol symbol;
    if (!need(4)) {
      return InvalidArgumentError("truncated symbol name length");
    }
    const uint32_t name_len = get32();
    // 64-bit arithmetic: a crafted name_len near UINT32_MAX must not wrap the bound.
    if (!need(static_cast<uint64_t>(name_len) + 12)) {
      return InvalidArgumentError("truncated symbol");
    }
    symbol.name.assign(raw.begin() + pos, raw.begin() + pos + name_len);
    pos += name_len;
    symbol.vaddr = get64();
    symbol.size = get32();
    image.symbols.push_back(std::move(symbol));
  }
  return image;
}

const KernelSection* KernelImage::FindSection(const std::string& name) const {
  for (const auto& section : sections) {
    if (section.name == name) {
      return &section;
    }
  }
  return nullptr;
}

namespace {

// Filler "instruction stream" bytes. Restricted to encodings that cannot combine with
// neighbours into a sensitive pattern (no 0x0F / 0x66 escape bytes).
void EmitFiller(Bytes& text, Rng& rng, int n) {
  static const uint8_t kSafe[] = {0x90, 0x55, 0x53, 0x51, 0x50, 0x89, 0xC3,
                                  0x48, 0x31, 0xC0, 0x83, 0xE9, 0x01, 0x75};
  for (int i = 0; i < n; ++i) {
    text.push_back(kSafe[rng.NextBelow(sizeof(kSafe))]);
  }
}

void Append(Bytes& text, const Bytes& bytes) {
  text.insert(text.end(), bytes.begin(), bytes.end());
}

}  // namespace

KernelImage BuildKernelImage(const KernelBuildOptions& options) {
  Rng rng(options.seed);
  KernelImage image;
  KernelSection text;
  text.name = ".text";
  text.executable = true;
  text.writable = false;
  text.vaddr = layout::kKernelTextBase;

  struct FunctionSpec {
    std::string name;
    std::vector<SensitiveOp> ops;
  };
  const std::vector<FunctionSpec> functions = {
      {"start_kernel", {SensitiveOp::kMovToCr0, SensitiveOp::kMovToCr4}},
      {"switch_mm", {SensitiveOp::kMovToCr3}},
      {"native_write_msr", {SensitiveOp::kWrmsr}},
      {"syscall_init", {SensitiveOp::kWrmsr}},
      {"copy_from_user", {SensitiveOp::kStac, SensitiveOp::kClac}},
      {"copy_to_user", {SensitiveOp::kStac, SensitiveOp::kClac}},
      {"load_current_idt", {SensitiveOp::kLidt}},
      {"tdx_hypercall", {SensitiveOp::kTdcall}},
      {"tdx_mcall_get_report", {SensitiveOp::kTdcall}},
      {"tdx_enc_status_changed", {SensitiveOp::kTdcall}},
      {"native_set_pte", {}},  // PTE writes are plain stores; policy comes from PKS
  };

  auto emit_function = [&](const std::string& name, const std::vector<SensitiveOp>& ops) {
    KernelSymbol symbol;
    symbol.name = name;
    symbol.vaddr = text.vaddr + text.data.size();
    Append(text.data, EncodeEndbr64());
    EmitFiller(text.data, rng, 6 + static_cast<int>(rng.NextBelow(18)));
    for (const SensitiveOp op : ops) {
      if (options.instrumented) {
        Append(text.data, EncodeEmcCall());
      } else {
        Append(text.data, EncodeSensitiveOp(op));
      }
      EmitFiller(text.data, rng, 2 + static_cast<int>(rng.NextBelow(8)));
    }
    text.data.push_back(0xC3);  // ret
    symbol.size = static_cast<uint32_t>(text.vaddr + text.data.size() - symbol.vaddr);
    image.symbols.push_back(symbol);
  };

  for (const auto& fn : functions) {
    emit_function(fn.name, fn.ops);
  }
  for (int i = 0; i < options.extra_functions; ++i) {
    emit_function("kfunc_" + std::to_string(i), {});
  }

  if (options.smuggle_sensitive_op) {
    // Hide the op mid-stream, unaligned relative to any function start, to exercise
    // the scanner's byte-level (not instruction-level) matching.
    const size_t insert_at = text.data.size() / 2 + 1;
    const Bytes op_bytes = EncodeSensitiveOp(options.smuggled_op);
    text.data.insert(text.data.begin() + insert_at, op_bytes.begin(), op_bytes.end());
  }

  image.sections.push_back(std::move(text));

  KernelSection data;
  data.name = ".data";
  data.executable = false;
  data.writable = true;
  data.vaddr = layout::kKernelTextBase + 0x200000;
  data.data.resize(4096);
  rng.Fill(data.data.data(), data.data.size());
  image.sections.push_back(std::move(data));

  KernelSection rodata;
  rodata.name = ".rodata";
  rodata.executable = false;
  rodata.writable = false;
  rodata.vaddr = layout::kKernelTextBase + 0x300000;
  rodata.data.assign({'E', 'R', 'E', 'B', 'O', 'R', '-', 'G', 'U', 'E', 'S', 'T'});
  image.sections.push_back(std::move(rodata));

  return image;
}

}  // namespace erebor
