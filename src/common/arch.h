#ifndef PDM_COMMON_ARCH_H_
#define PDM_COMMON_ARCH_H_

/// \file
/// Architecture dispatch for the per-round hot kernels.
///
/// The library ships portable x86-64 baseline binaries, but the O(n²)
/// mat-vec/rank-1 kernels gain ~1.5–2× from AVX2+FMA. PDM_TARGET_CLONES
/// compiles the annotated function twice (x86-64-v3 and baseline) and picks
/// the best variant at load time via GNU ifunc, so one binary serves every
/// machine at full speed. Within one process the chosen clone is fixed, so
/// results remain bit-deterministic for a given machine and build — the
/// property the runner/determinism tests rely on.
///
/// A kernel whose best source form differs per target (the linalg lane
/// width, linalg/lanes.h) is written twice instead: one definition marked
/// PDM_TARGET_V3, compiled only when PDM_TARGET_VERSIONS is 1, and one marked
/// PDM_TARGET_BASELINE. GCC dispatches the pair through the same ifunc
/// mechanism (C++ function multiversioning). With dispatch off, the baseline
/// definition is the function.
///
/// Every helper such a function calls must be always_inline: an out-of-line
/// helper is compiled once, for the baseline target, and the v3 variant
/// would call into it.
///
/// The dispatch is disabled under sanitizers (ifunc resolvers run before the
/// ASan runtime is initialized) and on toolchains without target_clones
/// (non-GCC, non-glibc, non-x86); the annotated functions then compile once
/// for the default target.

#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__) &&              \
    !defined(__SANITIZE_THREAD__)
#define PDM_TARGET_CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#define PDM_TARGET_VERSIONS 1
#define PDM_TARGET_V3 __attribute__((target("arch=x86-64-v3")))
#define PDM_TARGET_BASELINE __attribute__((target("default")))
#else
#define PDM_TARGET_CLONES
#define PDM_TARGET_VERSIONS 0
#define PDM_TARGET_BASELINE
#endif

#endif  // PDM_COMMON_ARCH_H_
