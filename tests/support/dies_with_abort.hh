/**
 * @file
 * diesWithAbort(): observe an assertion firing without death tests.
 * The gtest shim has none, so the callable runs in a forked child
 * and the parent reads the child's exit status.
 */

#ifndef DCRA_SMT_TESTS_SUPPORT_DIES_WITH_ABORT_HH
#define DCRA_SMT_TESTS_SUPPORT_DIES_WITH_ABORT_HH

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>

namespace smt::test {

/**
 * Run @p fn in a forked child (stderr silenced) and report whether
 * it died with SIGABRT.
 */
template <typename Fn>
bool
diesWithAbort(Fn fn)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        // smtlint:allow(D4): redirecting the forked child's stderr, not writing to it
        if (!std::freopen("/dev/null", "w", stderr))
            _exit(97);
        fn();
        _exit(0); // survived: the assertion did not fire
    }
    if (pid < 0)
        return false;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return false;
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
}

} // namespace smt::test

#endif // DCRA_SMT_TESTS_SUPPORT_DIES_WITH_ABORT_HH
