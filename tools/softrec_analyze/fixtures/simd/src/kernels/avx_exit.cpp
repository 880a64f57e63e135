// Fixture for avx-zeroupper: AVX-target functions must clear the YMM
// upper halves; functions without an AVX target are not checked.

__attribute__((target("avx2"))) void
leavesUpperDirty(float *dst, const float *src)
{
    _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
}

__attribute__((target("avx2,f16c"))) void
clearsUpper(float *dst, const float *src)
{
    _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
    _mm256_zeroupper();
}

__attribute__((target("avx2")))
int
attributeOnItsOwnLine(const float *src)
{
    return _mm256_movemask_ps(_mm256_loadu_ps(src));
}

__attribute__((target("sse4.2"))) int
notAnAvxTarget(int x)
{
    return x + 1;
}

// __attribute__((target("avx2"))) in a comment does not count.
void
plainFunction(float *dst)
{
    dst[0] = 0.0f;
}

__attribute__((target("avx2"))) void
zeroupperOnlyInComment(float *dst)
{
    // _mm256_zeroupper();
    _mm256_storeu_ps(dst, _mm256_setzero_ps());
}

__attribute__((target("fma,avx2"))) void
avxNamedLaterInTheList(float *dst, const float *src)
{
    _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
}

__attribute__((target("fma,avx2"))) void
avxNamedLaterAndCleared(float *dst, const float *src)
{
    _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
    _mm256_zeroupper();
}

// target_clones is exempt: the compiler emits each clone's exit.
__attribute__((target_clones("avx2", "default"))) void
clonedForAvx(float *dst, const float *src, int n)
{
    for (int i = 0; i < n; ++i)
        dst[i] = src[i] * 2.0f;
}
