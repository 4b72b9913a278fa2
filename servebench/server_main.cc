// The served side of the benchmark: one process running the real
// net::Server over a ServingRouter.
//
//   servebench_server --snapshot PATH [--router-threads N]
//
// Start-up generates the catalog (workload.h), loads the snapshot into
// the slot (canary included) and starts the router and the listener, then
// prints "ready <port> <kernel backend>" on stdout. The load generator
// drives it over the wire and uses stdin as a control channel, one
// command per line, answered on stdout:
//   cpu   -> "cpu <ns>"   process CPU time, all threads (user + system)
//   rss   -> "rss <kB>"   peak resident set size (VmHWM)
//   quit  -> graceful stop and exit 0 (end of stdin does the same)

#include <signal.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "net/server.h"
#include "nn/kernels.h"
#include "serve/router.h"
#include "workload.h"

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  std::string snapshot;
  int router_threads = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--snapshot") == 0) {
      snapshot = argv[i + 1];
    } else if (std::strcmp(argv[i], "--router-threads") == 0) {
      router_threads = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "servebench_server: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (snapshot.empty()) {
    std::fprintf(stderr, "servebench_server: --snapshot is required\n");
    return 2;
  }

  const rapid::data::Dataset data = servebench::MakeCatalog();
  rapid::serve::ServingRouter router(
      data, servebench::RouterSettings(router_threads));
  if (router.LoadSlot(servebench::kSlot, snapshot) == 0) {
    std::fprintf(stderr, "servebench_server: cannot load %s\n",
                 snapshot.c_str());
    return 1;
  }
  rapid::net::Server server(router, servebench::ServerSettings());
  if (!server.Start()) {
    std::fprintf(stderr, "servebench_server: listener did not start\n");
    return 1;
  }
  std::printf("ready %u %s\n", server.port(),
              rapid::nn::kernel::BackendName(
                  rapid::nn::kernel::ActiveBackend()));
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line) && line != "quit") {
    if (line == "cpu") {
      timespec ts{};
      clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      std::printf("cpu %lld\n",
                  static_cast<long long>(ts.tv_sec) * 1000000000LL +
                      ts.tv_nsec);
    } else if (line == "rss") {
      // VmHWM, not getrusage: ru_maxrss survives exec and would report
      // the spawning process's peak.
      std::ifstream status("/proc/self/status");
      std::string key;
      long long kb = -1;
      while (status >> key) {
        if (key == "VmHWM:") {
          status >> kb;
          break;
        }
        status.ignore(1 << 20, '\n');
      }
      std::printf("rss %lld\n", kb);
    } else {
      std::printf("error unknown command\n");
    }
    std::fflush(stdout);
  }
  server.Stop();
  router.Shutdown();
  return 0;
}
