/**
 * @file
 * A counting replacement for the global operator new, for tests that
 * assert a path allocates nothing (read gAllocations before and after
 * it). The replacement covers the whole test binary, so include this
 * header from exactly one translation unit per binary; every
 * tests/test_*.cc is its own binary.
 */

#ifndef LACC_TESTS_COUNT_ALLOCATIONS_HH
#define LACC_TESTS_COUNT_ALLOCATIONS_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
/** Heap allocations made by this test binary. */
std::atomic<std::uint64_t> gAllocations{0};
} // namespace

// A malloc-backed replacement pair that counts every allocation; the
// library's array and sized forms forward to these two.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    ++gAllocations;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // LACC_TESTS_COUNT_ALLOCATIONS_HH
