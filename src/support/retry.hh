/**
 * @file
 * retryIo: bounded-backoff retry for transient I/O failures.
 *
 * POSIX calls on a shared filesystem legitimately fail with EINTR
 * (signal delivery mid-syscall) or EAGAIN/EWOULDBLOCK without
 * anything being wrong; a store that treats those as permanent
 * turns a hiccup into a cold cache or a failed run. retryIo()
 * retries exactly that transient class with short exponential
 * backoff and hands every other errno straight back to the caller's
 * normal failure path.
 */

#ifndef PREDILP_SUPPORT_RETRY_HH
#define PREDILP_SUPPORT_RETRY_HH

#include <cerrno>
#include <chrono>
#include <thread>

namespace predilp
{

/** Is @p err an errno worth retrying? */
inline bool
isTransientErrno(int err)
{
    return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

/**
 * Run @p fn (a callable returning true on success, leaving errno set
 * on failure) up to @p attempts times, sleeping 1ms, 2ms, 4ms, ...
 * between tries, but only while errno reports a transient condition
 * (EINTR/EAGAIN/EWOULDBLOCK). Returns @p fn's final result; a
 * non-transient failure returns immediately with errno intact.
 */
template <typename Fn>
bool
retryIo(Fn &&fn, int attempts = 5)
{
    for (int attempt = 0;; ++attempt) {
        errno = 0;
        if (fn())
            return true;
        if (attempt + 1 >= attempts || !isTransientErrno(errno))
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1u << attempt));
    }
}

} // namespace predilp

#endif // PREDILP_SUPPORT_RETRY_HH
