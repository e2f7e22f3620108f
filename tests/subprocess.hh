/**
 * @file
 * Shared test helpers: run a shell command and capture its stdout,
 * or spawn one in the background and reap (or kill) it later. Used
 * by the golden-output bench harness, the wlcrc_sim --json round
 * trip, and the distributed-backend suite's worker subprocesses.
 */

#ifndef WLCRC_TESTS_SUBPROCESS_HH
#define WLCRC_TESTS_SUBPROCESS_HH

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace wlcrc::test
{

/**
 * Start @p cmd via `/bin/sh -c` without waiting, returning the
 * shell's pid. Use `exec some-binary args` as the command when the
 * test needs to signal the binary itself (SIGKILL fault injection):
 * exec replaces the shell, so the returned pid IS the binary's.
 * @p stdoutFd, when set, becomes the command's stdout.
 */
inline pid_t
spawnBackground(const std::string &cmd, int stdoutFd = -1)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed: " + cmd);
    if (pid == 0) {
        if (stdoutFd >= 0)
            ::dup2(stdoutFd, STDOUT_FILENO); // the copy drops CLOEXEC
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Blocking waitpid; returns the raw status (-1 on error). */
inline int
reap(pid_t pid)
{
    int status = -1;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
        continue;
    return status;
}

/** A running `/bin/sh -c` command whose stdout is a pipe. */
struct OutputPipe
{
    FILE *out = nullptr;
    pid_t pid = -1;
};

/** Start @p cmd with its stdout readable from the returned pipe. */
inline OutputPipe
openOutputPipe(const std::string &cmd)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe failed: " + cmd);
    const pid_t pid = spawnBackground(cmd, fds[1]);
    ::close(fds[1]);
    return {::fdopen(fds[0], "r"), pid};
}

/**
 * Read @p p's stdout to EOF and reap the command; @p exit_code gets
 * its raw wait status.
 */
inline std::string
finishOutputPipe(OutputPipe &p, int &exit_code)
{
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p.out)) > 0)
        out.append(buf, n);
    std::fclose(p.out);
    p.out = nullptr;
    exit_code = reap(p.pid);
    return out;
}

/**
 * Run @p cmd via /bin/sh and return its stdout. @p exit_code gets
 * the raw wait status. Redirect stderr in the command string if it
 * should be discarded.
 */
inline std::string
captureStdout(const std::string &cmd, int &exit_code)
{
    OutputPipe p = openOutputPipe(cmd);
    return finishOutputPipe(p, exit_code);
}

/** SIGKILL @p pid and reap it (idempotent on an exited child). */
inline void
killAndReap(pid_t pid)
{
    ::kill(pid, SIGKILL);
    reap(pid);
}

} // namespace wlcrc::test

#endif // WLCRC_TESTS_SUBPROCESS_HH
