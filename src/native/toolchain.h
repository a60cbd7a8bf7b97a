// Host-toolchain step of the native harness: turn an emitted kitos
// translation unit (a string of C) into a loadable shared object with
// whatever C compiler the machine has.
//
// Everything is best-effort by design: a box without a working `cc` (or
// without dlopen) must make the native tier *skip*, not fail, so callers
// first consult ToolchainAvailable() and propagate its reason string.
#ifndef REVNIC_NATIVE_TOOLCHAIN_H_
#define REVNIC_NATIVE_TOOLCHAIN_H_

#include <string>

namespace revnic::native {

// The compiler command used for runtime compilation: $REVNIC_NATIVE_CC if
// set, else "cc".
std::string HostCompiler();

// True when HostCompiler() can produce a shared object we can dlopen.
// Probed once per process (compiles and loads a trivial TU in a temp dir);
// on failure `why` (optional) gets a one-line reason for skip messages.
bool ToolchainAvailable(std::string* why = nullptr);

// A process-unique scratch directory for compile artifacts; created lazily
// under the system temp dir, reused for the life of the process and removed
// when the process that created it exits normally.
std::string DefaultWorkDir();

// Compiles `source` (C11) into a shared object at `so_path` (intermediate
// .c kept next to it for debugging). Sanitizer builds of the harness
// compile the TU with the same -fsanitize flag so the dlopen'd code is
// instrumented too. Returns false with the compiler's stderr in `error`.
bool CompileSharedObject(const std::string& source, const std::string& so_path,
                         std::string* error);

}  // namespace revnic::native

#endif  // REVNIC_NATIVE_TOOLCHAIN_H_
