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

// Malloc-backed replacements that count every allocation. Every
// plain, nothrow, array and sized form is replaced, not just the ones
// the library forwards to the plain pair: a sanitizer runtime
// intercepts each form it finds unreplaced, and memory from its
// `new (std::nothrow)` (std::stable_sort's buffer) freed by this
// `delete` is an alloc-dealloc mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++gAllocations;
    return std::malloc(n != 0 ? n : 1);
}

void *
operator new(std::size_t n)
{
    if (void *p = operator new(n, std::nothrow))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return operator new(n, std::nothrow);
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
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

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // LACC_TESTS_COUNT_ALLOCATIONS_HH
