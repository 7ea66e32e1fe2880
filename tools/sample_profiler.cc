// SIGPROF sampling profiler, loaded into a single-threaded program with
// LD_PRELOAD (tools/sample_profile.sh builds and drives it).
//
// Every ITIMER_PROF tick the handler records the interrupted program
// counter and the return addresses along the frame-pointer chain.  The
// kernel delivers profiling ticks at its timer rate, so the sampling rate is
// a few hundred per CPU-second whatever interval is asked for.  Only the
// main thread is sampled, and the walk never leaves the main thread's stack
// between the interrupted stack pointer and the stack's top: code built
// without frame pointers (libstdc++, libc) leaves an arbitrary value in the
// frame-pointer register, and following it unchecked crashes the program.
// The walk also stops at the first frame pointer that does not move toward
// the top of the stack.
//
// Output goes to the file named by $SAMPLE_PROFILE_OUT (nothing is
// recorded when it is unset):
//   <out>       one record per sample: a uint64 frame count n, then n
//               uint64 addresses, the program counter first
//   <out>.maps  written at exit, one line per executable segment of every
//               loaded module: "<start> <end> <load base> <path>" (hex)
// tools/sample_profile.py symbolizes both with addr2line.
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if !defined(__x86_64__)
#error "sample_profiler reads x86-64 registers"
#endif

namespace {

constexpr int kMaxFrames = 64;

int g_fd = -1;
pid_t g_main_tid = 0;
std::uintptr_t g_stack_top = 0;
char g_maps_path[4096];

void write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

void on_sigprof(int, siginfo_t*, void* context) {
  if (g_fd < 0 || syscall(SYS_gettid) != g_main_tid) return;
  const int saved_errno = errno;
  const auto* uc = static_cast<const ucontext_t*>(context);
  const std::uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
  const std::uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
  std::uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
  std::uint64_t rec[1 + kMaxFrames];
  int n = 0;
  rec[1 + n++] = pc;
  // A frame is {saved frame pointer, return address}, between the current
  // stack pointer and the top of the main thread's stack.
  while (n < kMaxFrames && fp >= sp && fp % sizeof(std::uintptr_t) == 0 &&
         fp + 2 * sizeof(std::uintptr_t) <= g_stack_top) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    if (frame[1] == 0) break;
    rec[1 + n++] = frame[1];
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  rec[0] = static_cast<std::uint64_t>(n);
  write_all(g_fd, rec, sizeof(std::uint64_t) * static_cast<std::size_t>(1 + n));
  errno = saved_errno;
}

int write_module(dl_phdr_info* info, std::size_t, void* data) {
  FILE* out = static_cast<FILE*>(data);
  char exe[4096];
  const char* path = info->dlpi_name;
  if (path == nullptr || path[0] == '\0') {
    // The main program reports an empty name.
    ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) return 0;
    exe[len] = '\0';
    path = exe;
  }
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    std::uintptr_t start = info->dlpi_addr + ph.p_vaddr;
    std::fprintf(out, "%lx %lx %lx %s\n", static_cast<unsigned long>(start),
                 static_cast<unsigned long>(start + ph.p_memsz),
                 static_cast<unsigned long>(info->dlpi_addr), path);
  }
  return 0;
}

__attribute__((constructor)) void start_sampling() {
  const char* out = std::getenv("SAMPLE_PROFILE_OUT");
  if (out == nullptr || out[0] == '\0') return;
  if (std::snprintf(g_maps_path, sizeof(g_maps_path), "%s.maps", out) >=
      static_cast<int>(sizeof(g_maps_path))) {
    return;
  }
  pthread_attr_t attr;
  void* stack_lo = nullptr;
  std::size_t stack_size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &stack_lo, &stack_size);
  pthread_attr_destroy(&attr);
  g_stack_top = reinterpret_cast<std::uintptr_t>(stack_lo) + stack_size;
  g_main_tid = static_cast<pid_t>(syscall(SYS_gettid));
  g_fd = open(out, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (g_fd < 0) return;

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval tv{};
  tv.it_interval.tv_usec = 1000;
  tv.it_value.tv_usec = 1000;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((destructor)) void stop_sampling() {
  if (g_fd < 0) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  const int fd = g_fd;
  g_fd = -1;
  close(fd);
  if (FILE* maps = std::fopen(g_maps_path, "w")) {
    dl_iterate_phdr(write_module, maps);
    std::fclose(maps);
  }
}

}  // namespace
