#ifndef RUBIK_RUNNER_SUBPROC_H
#define RUBIK_RUNNER_SUBPROC_H

/**
 * @file
 * Child-process plumbing for the dispatch engine
 * (runner/orchestrator.h): spawn a shell command with redirected
 * stdio, wait with or without a deadline, kill a straggler's whole
 * process group, and the scratch-file helpers around them.
 *
 * Unlike std::system("( cmd ) > out 2> err"), spawnShellCommand
 * redirects in the forked child *before* exec'ing `sh -c cmd`, so for
 * a simple command the shell execs it directly and the pid we hold is
 * the command itself — a child killed by SIGKILL surfaces as
 * WIFSIGNALED (decoded "killed by signal 9"), not as a subshell's
 * exit 137. That decoded status is what dispatch error messages
 * report, so a signal death is never mistaken for an
 * application exit code.
 *
 * Children are placed in their own process group, so
 * killCommandGroup() reaps a hung `sh -c 'a; b'` tree as a unit.
 */

#include <string>

#include <sys/types.h>

namespace rubik {

/**
 * Fork and exec `/bin/sh -c command` with stdout/stderr redirected
 * (O_TRUNC-created) to the given paths, in a fresh process group.
 * Returns the child pid, or -1 when the fork fails (errno set).
 */
pid_t spawnShellCommand(const std::string &command,
                        const std::string &stdout_path,
                        const std::string &stderr_path);

/**
 * Block until `pid` exits and return its raw wait status (decode with
 * describeWaitStatus / commandSucceeded). Returns -1 if `pid` is -1
 * or waitpid fails.
 */
int waitCommand(pid_t pid);

/**
 * Wait up to `seconds` (polling) for `pid` to exit. On exit, stores
 * the raw wait status in `*status` and returns true; on deadline,
 * leaves the child running and returns false. `seconds <= 0` polls
 * exactly once.
 */
bool waitCommandFor(pid_t pid, double seconds, int *status);

/**
 * SIGKILL `pid`'s process group (and the pid itself, in case it
 * escaped the group) and reap it. Safe on already-dead children.
 */
void killCommandGroup(pid_t pid);

/// Human-readable decode of a waitpid status ("exited with status 3",
/// "killed by signal 9", ...). -1 decodes as a spawn failure.
std::string describeWaitStatus(int status);

/// True when the status is a clean exit 0.
bool commandSucceeded(int status);

/// mkdtemp-backed scratch directory under $TMPDIR (default /tmp),
/// recursively removed on scope exit.
class TempDir
{
  public:
    TempDir();
    ~TempDir();

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/// Whole content of `path`; "" when it cannot be opened.
std::string readFileText(const std::string &path);

/// Write `text` to `path` (truncating). Throws std::runtime_error on
/// a failed open or a short write.
void writeFileText(const std::string &path, const std::string &text);

/// The last 4 KiB of a captured stderr text, trailing newlines
/// stripped — what error messages quote.
std::string stderrTail(std::string text);

} // namespace rubik

#endif // RUBIK_RUNNER_SUBPROC_H
