#ifndef SVC_TESTS_SERVED_PROCESS_H_
#define SVC_TESTS_SERVED_PROCESS_H_

// Runs the svc_served binary as a child process, for tests that crash a
// server on purpose. The child execs at once: a forked copy of a
// multi-threaded test process may not start threads under ThreadSanitizer
// ("starting new threads after multi-threaded fork is not supported").

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace svc {
namespace testing_util {

/// One svc_served child over a durable data directory, armed through
/// SVC_FAULT. The destructor kills a child still running.
class ServedProcess {
 public:
  ServedProcess() = default;
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;
  ~ServedProcess() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }

  /// Execs svc_served (built beside this test binary) on an ephemeral port
  /// over `data_dir` with SVC_FAULT=`fault`, and waits for the port it
  /// writes to `port_file`. Returns an empty string on success, else what
  /// went wrong.
  std::string Start(const std::string& data_dir, const std::string& port_file,
                    const std::string& fault) {
    const std::string served =
        (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
         "svc_served")
            .string();
    if (!std::filesystem::exists(served)) return "no binary at " + served;
    std::filesystem::remove(port_file);
    std::vector<std::string> args = {served,     "--port",      "0",
                                     "--data-dir", data_dir,    "--port-file",
                                     port_file};
    std::vector<std::string> env = {"SVC_FAULT=" + fault};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "SVC_FAULT=", 10) != 0) env.push_back(*e);
    }
    std::vector<char*> argv = CStrings(&args);
    std::vector<char*> envp = CStrings(&env);
    pid_ = fork();
    if (pid_ < 0) return "fork failed";
    if (pid_ == 0) {
      execve(argv[0], argv.data(), envp.data());
      _exit(127);
    }
    for (int i = 0; i < 1200 && port_ == 0; ++i) {
      std::FILE* f = std::fopen(port_file.c_str(), "r");
      unsigned parsed = 0;
      if (f != nullptr) {
        if (std::fscanf(f, "%u", &parsed) == 1) {
          port_ = static_cast<uint16_t>(parsed);
        }
        std::fclose(f);
      }
      if (port_ == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return port_ == 0 ? "svc_served never wrote " + port_file : "";
  }

  uint16_t port() const { return port_; }

  /// Waits for the child to exit: its exit code, or -1 when a signal
  /// ended it.
  int Wait() {
    int wstatus = 0;
    const pid_t got = waitpid(pid_, &wstatus, 0);
    pid_ = 0;
    if (got < 0 || !WIFEXITED(wstatus)) return -1;
    return WEXITSTATUS(wstatus);
  }

 private:
  static std::vector<char*> CStrings(std::vector<std::string>* v) {
    std::vector<char*> out;
    for (std::string& s : *v) out.push_back(s.data());
    out.push_back(nullptr);
    return out;
  }

  pid_t pid_ = 0;
  uint16_t port_ = 0;
};

}  // namespace testing_util
}  // namespace svc

#endif  // SVC_TESTS_SERVED_PROCESS_H_
