/**
 * @file
 * Compile-time SIMD platform detection shared by every file with a
 * runtime-dispatched SIMD path (the fp16 batch conversions, the
 * dot-product primitives and the exp primitive). Defines SOFTREC_SIMD_X86
 * (x86-64 with GCC/Clang target attributes; includes <immintrin.h>)
 * or SOFTREC_SIMD_NEON (AArch64 with NEON; includes <arm_neon.h>),
 * unless the build configured -DSOFTREC_SIMD=OFF
 * (SOFTREC_SIMD_DISABLED). Which path
 * actually runs is still chosen at runtime by simdBackend().
 */

#ifndef SOFTREC_FP16_SIMD_PLATFORM_HPP
#define SOFTREC_FP16_SIMD_PLATFORM_HPP

#if !defined(SOFTREC_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define SOFTREC_SIMD_X86 1
#include <immintrin.h>
#endif

#if !defined(SOFTREC_SIMD_DISABLED) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define SOFTREC_SIMD_NEON 1
#include <arm_neon.h>
#endif

#endif // SOFTREC_FP16_SIMD_PLATFORM_HPP
