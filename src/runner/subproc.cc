#include "runner/subproc.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace rubik {

namespace {

/// Open `path` for the child's fd `target`, truncating; best effort
/// (a failed redirect leaves the inherited fd in place).
void
redirectTo(const std::string &path, int target)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        ::dup2(fd, target);
        ::close(fd);
    }
}

} // anonymous namespace

pid_t
spawnShellCommand(const std::string &command,
                  const std::string &stdout_path,
                  const std::string &stderr_path)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        // Child: own process group, so a straggler kill reaps any
        // grandchildren the shell leaves behind too.
        ::setpgid(0, 0);
        redirectTo(stdout_path, STDOUT_FILENO);
        redirectTo(stderr_path, STDERR_FILENO);
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    // Mirror the child's setpgid here: whichever side runs first wins,
    // and a kill issued before the child reaches exec still hits the
    // right group.
    ::setpgid(pid, pid);
    return pid;
}

int
waitCommand(pid_t pid)
{
    if (pid < 0)
        return -1;
    int status = 0;
    pid_t got;
    do {
        got = ::waitpid(pid, &status, 0);
    } while (got < 0 && errno == EINTR);
    return got == pid ? status : -1;
}

bool
waitCommandFor(pid_t pid, double seconds, int *status)
{
    if (pid < 0) {
        *status = -1;
        return true;
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(seconds > 0.0 ? seconds : 0.0);
    for (;;) {
        int raw = 0;
        const pid_t got = ::waitpid(pid, &raw, WNOHANG);
        if (got == pid) {
            *status = raw;
            return true;
        }
        if (got < 0 && errno != EINTR) {
            *status = -1;
            return true;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

void
killCommandGroup(pid_t pid)
{
    if (pid <= 0)
        return;
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
    (void)waitCommand(pid);
}

std::string
describeWaitStatus(int status)
{
    if (status == -1)
        return "could not spawn /bin/sh";
    if (WIFEXITED(status)) {
        return "exited with status " +
               std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status));
    return "returned unknown wait status";
}

bool
commandSucceeded(int status)
{
    return status != -1 && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

TempDir::TempDir()
{
    const char *base = std::getenv("TMPDIR");
    std::string tmpl = (base && *base) ? base : "/tmp";
    tmpl += "/rubik-dispatch-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (!::mkdtemp(buf.data()))
        throw std::runtime_error("cannot create temp directory under " +
                                 tmpl);
    path_ = buf.data();
}

TempDir::~TempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

std::string
readFileText(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::string text;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

void
writeFileText(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok)
        throw std::runtime_error("short write to " + path);
}

std::string
stderrTail(std::string text)
{
    constexpr std::size_t kMax = 4096;
    if (text.size() > kMax)
        text = "..." + text.substr(text.size() - kMax);
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

} // namespace rubik
