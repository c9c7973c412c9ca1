/**
 * @file
 * Retry-on-EINTR wrappers for blocking syscalls.
 *
 * Any blocking syscall may return -1/EINTR when a signal is
 * delivered; forgetting the retry loop turns a stray SIGCHLD or a
 * profiler tick into a spurious I/O failure — in the sandbox that
 * means misdecoding a healthy child as crashed.  retryEintr()
 * centralizes the loop and, crucially, threads the call through a
 * fault-injection site so lkmm-chaos can prove each loop actually
 * absorbs EINTR (and that the non-EINTR error path still reports).
 *
 * Deliberately NOT used for the watchdog poll in
 * subprocess::waitAny: an EINTR there returns to the caller, so the
 * loop a signal interrupted re-checks its CancelToken at once
 * instead of at the end of its poll slice.  Callers poll the token
 * either way; the early return only shortens the wait.
 */

#ifndef LKMM_BASE_EINTR_HH
#define LKMM_BASE_EINTR_HH

#include <cerrno>

#include "base/faultinject.hh"

namespace lkmm
{

/**
 * Run a syscall thunk (returning ssize_t/int, -1 + errno on error),
 * retrying while it fails with EINTR.  Before each attempt the
 * fault-injection site `siteId` is consulted: an injected EINTR is
 * absorbed by the same loop as a real one, while an injected
 * `errnoForError`/ENOMEM fails the call as if the kernel had.
 * Returns the syscall's result; on failure errno is set as usual.
 */
template <typename Fn>
auto
retryEintr(const char *siteId, int errnoForError, Fn &&fn,
           const char *what = nullptr) -> decltype(fn())
{
    for (;;) {
        const int injected =
            faultinject::checkSiteErrno(siteId, errnoForError, what);
        if (injected == EINTR)
            continue; // a correct loop makes injected EINTR invisible
        if (injected != 0) {
            errno = injected;
            return -1;
        }
        const auto rc = fn();
        if (rc == -1 && errno == EINTR)
            continue;
        return rc;
    }
}

} // namespace lkmm

#endif // LKMM_BASE_EINTR_HH
