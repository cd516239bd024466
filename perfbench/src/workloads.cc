#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "src/util/strings.h"

namespace perfbench {

namespace kernel = cntr::kernel;
namespace container = cntr::container;
using cntr::Status;
using cntr::StatusOr;

namespace {

constexpr uint64_t kMiB = 1ull << 20;

uint64_t HashStr(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char ch : s) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  return h;
}

// Writes a seeded file as `proc`: the first `content_bytes` from the
// generator, the rest of `size` as a hole.
Status WriteFile(kernel::Kernel& k, kernel::Process& proc, const std::string& path,
                 kernel::Mode mode, uint64_t size, uint64_t content_seed,
                 uint64_t content_bytes) {
  CNTR_ASSIGN_OR_RETURN(kernel::Fd fd,
                        k.Open(proc, path, kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc,
                               mode));
  std::vector<char> buf(std::min<uint64_t>(content_bytes, kMiB));
  for (uint64_t off = 0; off < content_bytes; off += buf.size()) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(buf.size(), content_bytes - off));
    FillContent(content_seed, off, buf.data(), n);
    CNTR_ASSIGN_OR_RETURN(size_t written, k.Write(proc, fd, buf.data(), n));
    if (written != n) {
      return Status::Error(EIO, "short write populating " + path);
    }
  }
  if (size > content_bytes) {
    CNTR_RETURN_IF_ERROR(k.Ftruncate(proc, fd, size));
  }
  return k.Close(proc, fd);
}

Status MkdirAll(kernel::Kernel& k, kernel::Process& proc, const std::string& path) {
  std::string cur;
  for (const auto& comp : cntr::SplitPath(path)) {
    cur += "/" + comp;
    Status st = k.Mkdir(proc, cur, 0755);
    if (!st.ok() && st.error() != EEXIST) {
      return st;
    }
  }
  return Status::Ok();
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  for (const auto& line : cntr::SplitString(text, '\n')) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Closed-loop helpers shared by the workloads: each times one call, then
// verifies its result.
bool OpenTimed(Client& c, const std::string& path, int flags, kernel::Fd* fd) {
  auto r = c.rec->Time(Op::kOpen, HashStr(path), [&] { return c.kernel->Open(*c.proc, path, flags, 0644); });
  c.rec->Check(r.ok(), r.error());
  *fd = r.ok() ? r.value() : -1;
  return r.ok();
}

void CloseTimed(Client& c, kernel::Fd fd) {
  // fd numbers differ between the attached and native processes, so they
  // stay out of the call-sequence key.
  Status st = c.rec->Time(Op::kClose, 0, [&] { return c.kernel->Close(*c.proc, fd); });
  c.rec->Check(st.ok(), st.error());
}

// ---------------------------------------------------------------------------
// tools-session: a debugging session over a seeded tools tree on /data.
// ---------------------------------------------------------------------------
class ToolsSession : public Workload {
 public:
  explicit ToolsSession(uint64_t seed) : Workload(seed) { Generate(); }

  int prefix_rounds() const override { return 24; }

  Status Populate(kernel::Kernel& k, kernel::Process& host) override {
    for (const std::string& dir : dirs_) {
      CNTR_RETURN_IF_ERROR(MkdirAll(k, host, dir));
    }
    for (const File& f : files_) {
      CNTR_RETURN_IF_ERROR(WriteFile(k, host, f.path, f.mode, f.size, f.content,
                                     std::min(f.size, kHeadBytes)));
    }
    CNTR_RETURN_IF_ERROR(MkdirAll(k, host, "/usr/bin"));
    for (const std::string& tool : usr_bin_) {
      CNTR_RETURN_IF_ERROR(
          WriteFile(k, host, "/usr/bin/" + tool, 0755, 1024, HashStr(tool) ^ seed_, 1024));
    }
    return Status::Ok();
  }

  void Round(Client& c, int round) override {
    if (round < 0) {
      // Warm-up: every file and directory once, so the timed rounds start
      // from warm server and host page caches. Dropping dentries every 512
      // files keeps the client-side FUSE pages from filling the page cache
      // meanwhile: nothing in this workload evicts, so no result depends on
      // which cache shard a page hashed to.
      for (size_t f = 0; f < files_.size(); ++f) {
        if (f % 512 == 511) {
          c.kernel->dcache().Clear();
        }
        ReadHead(c, f);
      }
      for (size_t d = 0; d < dirs_.size(); ++d) {
        Listing(c, d);
      }
      return;
    }
    // Sessions alternate: dentries dropped (server stays warm), then warm.
    Session(c, 2 * static_cast<uint64_t>(round), /*drop_dentries=*/true);
    Session(c, 2 * static_cast<uint64_t>(round) + 1, /*drop_dentries=*/false);
  }

 private:
  static constexpr int kBinDirs = 8;
  static constexpr int kLibDirs = 24;
  static constexpr int kFilesPerDir = 64;
  static constexpr int kExecsPerSession = 48;
  static constexpr int kLibsPerBinary = 3;
  static constexpr int kListingsPerSession = 2;
  static constexpr uint64_t kHeadBytes = 16 * 1024;

  struct File {
    std::string path;
    std::string name;
    size_t dir = 0;
    kernel::Mode mode = 0644;
    uint64_t size = 0;
    uint64_t content = 0;
  };

  void Generate() {
    Prng rng(Mix64(seed_ ^ 0x70015ULL));
    // Sizes are log-uniform between 4 KiB and 256 KiB, drawn as stratified
    // quantiles and dealt out in a seeded order: every seed gets the same
    // multiset of sizes, so the cached bytes (and with them the host cost of
    // a dentry drop) do not move with the seed.
    const size_t total = static_cast<size_t>(kBinDirs + kLibDirs) * kFilesPerDir;
    std::vector<uint64_t> sizes;
    for (size_t i = 0; i < total; ++i) {
      const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(total);
      sizes.push_back(static_cast<uint64_t>(4096.0 * std::exp2(6.0 * u)));
    }
    for (size_t i = total - 1; i > 0; --i) {
      std::swap(sizes[i], sizes[rng.Below(i + 1)]);
    }
    for (int d = 0; d < kBinDirs + kLibDirs; ++d) {
      const bool bin = d < kBinDirs;
      dirs_.push_back("/data/tools/" + (bin ? "bin" + std::to_string(d)
                                            : "lib" + std::to_string(d - kBinDirs)));
      dir_files_.emplace_back();
      for (int j = 0; j < kFilesPerDir; ++j) {
        File f;
        f.dir = static_cast<size_t>(d);
        f.name = bin ? "t" + std::to_string(d) + "_" + std::to_string(j)
                     : "lib" + std::to_string(d) + "_" + std::to_string(j) + ".so";
        f.path = dirs_.back() + "/" + f.name;
        f.mode = bin ? 0755 : 0644;
        f.size = sizes[files_.size()];
        f.content = Mix64(seed_ * 31 + files_.size() + 1);
        dir_files_.back().push_back(files_.size());
        (bin ? binaries_ : libraries_).push_back(files_.size());
        files_.push_back(std::move(f));
      }
    }
    for (size_t b = 0; b < binaries_.size(); ++b) {
      std::vector<size_t> libs;
      for (int i = 0; i < kLibsPerBinary; ++i) {
        libs.push_back(libraries_[rng.Below(libraries_.size())]);
      }
      libs_of_.push_back(std::move(libs));
    }
    usr_bin_ = {"awk", "cat", "curl", "gdb", "grep", "less", "ls",   "ltrace",
                "nc",  "perf", "ps",  "sed",  "strace", "tcpdump", "top", "vim"};
    const uint64_t extra = 8 + rng.Below(17);
    for (uint64_t i = 0; i < extra; ++i) {
      usr_bin_.push_back("tool" + std::to_string(i));
    }
  }

  void ReadHead(Client& c, size_t index) {
    const File& f = files_[index];
    kernel::Fd fd;
    if (!OpenTimed(c, f.path, kernel::kORdOnly, &fd)) {
      return;
    }
    char buf[kHeadBytes];
    auto n = c.rec->Time(Op::kRead, HashStr(f.path),
                         [&] { return c.kernel->Read(*c.proc, fd, buf, sizeof(buf)); });
    const uint64_t want = std::min(f.size, kHeadBytes);
    bool ok = n.ok() && n.value() == want;
    if (ok) {
      char expect[kHeadBytes];
      FillContent(f.content, 0, expect, want);
      ok = std::memcmp(buf, expect, want) == 0;
      c.rec->AddBytes(want);
    }
    c.rec->Check(ok);
    CloseTimed(c, fd);
  }

  void Listing(Client& c, size_t d) {
    kernel::Fd fd;
    if (!OpenTimed(c, dirs_[d], kernel::kORdOnly | kernel::kODirectory, &fd)) {
      return;
    }
    auto ents = c.rec->Time(Op::kGetdents, HashStr(dirs_[d]),
                            [&] { return c.kernel->Getdents(*c.proc, fd); });
    bool ok = ents.ok();
    if (ok) {
      std::vector<std::string> got;
      for (const auto& e : ents.value()) {
        if (e.name != "." && e.name != "..") {
          got.push_back(e.name);
        }
      }
      std::vector<std::string> want;
      for (size_t f : dir_files_[d]) {
        want.push_back(files_[f].name);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ok = got == want;
    }
    c.rec->Check(ok);
    CloseTimed(c, fd);
    // ls -l: stat every entry.
    for (size_t f : dir_files_[d]) {
      auto st = c.rec->Time(Op::kStat, HashStr(files_[f].path),
                            [&] { return c.kernel->Stat(*c.proc, files_[f].path); });
      c.rec->Check(st.ok() && st->size == files_[f].size);
    }
  }

  void Session(Client& c, uint64_t session, bool drop_dentries) {
    if (drop_dentries) {
      // Not a timed call: the drop shows in host time and as a span.
      c.rec->Untimed("kernel.dcache.drop", [&] { c.kernel->dcache().Clear(); });
    }
    Prng rng(Mix64(seed_ ^ (session * 0x9e3779b97f4a7c15ULL) ^ 0x5e5510ULL));
    for (int i = 0; i < kExecsPerSession; ++i) {
      const size_t b = binaries_[rng.Below(binaries_.size())];
      const File& bin = files_[b];
      // PATH-style exec resolution: probe bin0, bin1, ... until the binary
      // is found; the earlier misses are expected ENOENTs.
      for (size_t d = 0; d <= bin.dir; ++d) {
        const std::string path = dirs_[d] + "/" + bin.name;
        auto st = c.rec->Time(Op::kStat, HashStr(path),
                              [&] { return c.kernel->Stat(*c.proc, path); });
        if (d == bin.dir) {
          c.rec->Check(st.ok() && st->size == bin.size && (st->mode & 0111) != 0);
        } else {
          c.rec->Check(!st.ok() && st.error() == ENOENT);
        }
      }
      ReadHead(c, b);
      for (size_t lib : libs_of_[b]) {
        ReadHead(c, lib);
      }
    }
    for (int i = 0; i < kListingsPerSession; ++i) {
      Listing(c, rng.Below(dirs_.size()));
    }
    Exec(c, "which gdb", {"/usr/bin/gdb"});
    std::vector<std::string> tools = usr_bin_;
    std::sort(tools.begin(), tools.end());
    Exec(c, "ls /usr/bin", tools);
  }

  void Exec(Client& c, const std::string& cmd, const std::vector<std::string>& want) {
    std::string out = c.rec->Time(Op::kExec, HashStr(cmd), [&] { return c.exec(cmd); });
    c.rec->Check(SortedLines(out) == want);
  }

  std::vector<std::string> dirs_;
  std::vector<std::vector<size_t>> dir_files_;
  std::vector<File> files_;
  std::vector<size_t> binaries_;
  std::vector<size_t> libraries_;
  std::vector<std::vector<size_t>> libs_of_;
  std::vector<std::string> usr_bin_;
};

// ---------------------------------------------------------------------------
// bulk-stream: a core-dump-shaped sequential write + fsync, then two
// verified sequential read passes of a file larger than the page cache.
// ---------------------------------------------------------------------------
class BulkStream : public Workload {
 public:
  explicit BulkStream(uint64_t seed) : Workload(seed) {}

  int prefix_rounds() const override { return 3; }

  Status Populate(kernel::Kernel& k, kernel::Process& host) override {
    CNTR_RETURN_IF_ERROR(MkdirAll(k, host, "/data/bulk"));
    return WriteFile(k, host, kStreamPath, 0644, kStreamBytes, StreamContent(), kStreamBytes);
  }

  void Round(Client& c, int round) override {
    Prng rng(Mix64(seed_ ^ 0xc03eULL ^ (static_cast<uint64_t>(round + 1) << 32)));
    // The dump stays under the mount's 16 MiB per-inode writeback limit, so
    // fsync writes it back and no background flusher races the client.
    // Larger dumps put flusher-timed write stalls at the 99th percentile,
    // which then spread by 41-61% across seeds.
    const uint64_t dump_bytes = (8 + rng.Below(7)) * kMiB;
    WriteDump(c, rng.Next(), dump_bytes);
    // The warm-up streams the big file once; timed rounds read it twice.
    for (int pass = 0; pass < (round < 0 ? 1 : 2); ++pass) {
      ReadStream(c);
    }
  }

 private:
  static constexpr const char* kDumpPath = "/data/bulk/core";
  static constexpr const char* kStreamPath = "/data/bulk/stream";
  // Larger than the 96 MiB page cache; fixed, so peak memory does not move
  // with the seed (the content does).
  static constexpr uint64_t kStreamBytes = 128 * kMiB;

  uint64_t StreamContent() const { return Mix64(seed_ ^ 0x57eaULL); }

  void WriteDump(Client& c, uint64_t content, uint64_t size) {
    // One path, truncated by every round's open, so the simulated disk
    // holds one dump at a time.
    kernel::Fd fd;
    if (!OpenTimed(c, kDumpPath, kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, &fd)) {
      return;
    }
    std::vector<char> buf(kMiB);
    for (uint64_t off = 0; off < size; off += kMiB) {
      FillContent(content, off, buf.data(), kMiB);
      auto n = c.rec->Time(Op::kWrite, off,
                           [&] { return c.kernel->Write(*c.proc, fd, buf.data(), kMiB); });
      c.rec->Check(n.ok() && n.value() == kMiB, n.error());
      c.rec->AddBytes(kMiB);
    }
    Status synced = c.rec->Time(Op::kFsync, size, [&] { return c.kernel->Fsync(*c.proc, fd); });
    c.rec->Check(synced.ok(), synced.error());
    CloseTimed(c, fd);
  }

  void ReadStream(Client& c) {
    kernel::Fd fd;
    if (!OpenTimed(c, kStreamPath, kernel::kORdOnly, &fd)) {
      return;
    }
    std::vector<char> buf(kMiB);
    std::vector<char> expect(kMiB);
    for (uint64_t off = 0; off < kStreamBytes; off += kMiB) {
      auto n = c.rec->Time(Op::kRead, off,
                           [&] { return c.kernel->Read(*c.proc, fd, buf.data(), kMiB); });
      bool ok = n.ok() && n.value() == kMiB;
      if (ok) {
        FillContent(StreamContent(), off, expect.data(), kMiB);
        ok = std::memcmp(buf.data(), expect.data(), kMiB) == 0;
        c.rec->AddBytes(kMiB);
      }
      c.rec->Check(ok, n.error());
    }
    CloseTimed(c, fd);
  }

};

// ---------------------------------------------------------------------------
// fleet-rw: two slim containers served by one FuseServerPool, each client
// running a 70/30 4 KiB pread/pwrite mix over its own cache-resident file.
// ---------------------------------------------------------------------------
class FleetRw : public Workload {
 public:
  explicit FleetRw(uint64_t seed) : Workload(seed) {}

  int num_clients() const override { return 2; }
  int prefix_rounds() const override { return 64; }

  Status Populate(kernel::Kernel& k, kernel::Process& host) override {
    CNTR_RETURN_IF_ERROR(MkdirAll(k, host, "/data/fleet"));
    for (int i = 0; i < num_clients(); ++i) {
      CNTR_RETURN_IF_ERROR(
          WriteFile(k, host, Path(i), 0644, kFileBytes, Content(i), kFileBytes));
    }
    return Status::Ok();
  }

  void InitClient(Client& c) const override {
    c.shadow.resize(kFileBytes);
    FillContent(Content(static_cast<int>(c.id)), 0, c.shadow.data(), kFileBytes);
  }

  void Round(Client& c, int round) override {
    const std::string path = Path(static_cast<int>(c.id));
    kernel::Fd fd;
    if (!OpenTimed(c, path, kernel::kORdWr, &fd)) {
      return;
    }
    char buf[kBlock];
    if (round < 0) {
      // Warm-up: read the whole file once so it is cache resident.
      for (uint64_t b = 0; b < kFileBytes / kBlock; ++b) {
        PreadBlock(c, fd, b, buf);
      }
      CloseTimed(c, fd);
      return;
    }
    Prng rng(Mix64(seed_ ^ 0xf1ee7ULL ^ (static_cast<uint64_t>(c.id) << 48) ^
                   (static_cast<uint64_t>(round) << 8)));
    uint64_t writes = 0;
    for (int i = 0; i < kOpsPerRound; ++i) {
      const uint64_t block = rng.Below(kFileBytes / kBlock);
      if (rng.Chance(7, 10)) {
        PreadBlock(c, fd, block, buf);
      } else {
        FillContent(rng.Next(), 0, buf, kBlock);
        auto n = c.rec->Time(Op::kPwrite, block, [&] {
          return c.kernel->Pwrite(*c.proc, fd, buf, kBlock, block * kBlock);
        });
        c.rec->Check(n.ok() && n.value() == kBlock, n.error());
        std::memcpy(c.shadow.data() + block * kBlock, buf, kBlock);
        c.rec->AddBytes(kBlock);
        if (++writes % 64 == 0) {
          Status st = c.rec->Time(Op::kFsync, writes, [&] { return c.kernel->Fsync(*c.proc, fd); });
          c.rec->Check(st.ok(), st.error());
        }
      }
      if (i % 16 == 15) {
        auto st = c.rec->Time(Op::kStat, HashStr(path),
                              [&] { return c.kernel->Stat(*c.proc, path); });
        c.rec->Check(st.ok() && st->size == kFileBytes);
      }
    }
    CloseTimed(c, fd);
  }

 private:
  static constexpr uint64_t kFileBytes = 8 * kMiB;
  static constexpr size_t kBlock = 4096;
  static constexpr int kOpsPerRound = 1024;

  static std::string Path(int i) { return "/data/fleet/c" + std::to_string(i) + ".dat"; }
  uint64_t Content(int i) const { return Mix64(seed_ ^ 0xda7aULL ^ static_cast<uint64_t>(i)); }

  void PreadBlock(Client& c, kernel::Fd fd, uint64_t block, char* buf) {
    auto n = c.rec->Time(Op::kPread, block, [&] {
      return c.kernel->Pread(*c.proc, fd, buf, kBlock, block * kBlock);
    });
    const bool ok = n.ok() && n.value() == kBlock &&
                    std::memcmp(buf, c.shadow.data() + block * kBlock, kBlock) == 0;
    if (ok) {
      c.rec->AddBytes(kBlock);
    }
    c.rec->Check(ok);
  }
};

}  // namespace

container::Image Workload::AppImage(int index) const {
  Prng rng(Mix64(seed_ ^ 0xa99ULL ^ static_cast<uint64_t>(index)));
  const std::string app = "app" + std::to_string(index);
  container::Image image("bench/" + app, "slim");
  container::Layer layer;
  layer.id = app;
  layer.files.push_back(container::ImageFile{"/usr/bin/" + app, (1 + rng.Below(16)) * kMiB,
                                             0755, container::FileClass::kAppBinary, ""});
  layer.files.push_back(container::ImageFile{
      "/etc/" + app + ".conf", 0, 0644, container::FileClass::kConfig,
      "workers=" + std::to_string(1 + rng.Below(16)) + "\n"});
  layer.files.push_back(container::ImageFile{"/etc/passwd", 0, 0644,
                                             container::FileClass::kConfig,
                                             app + ":x:100:100::/var/lib/app:/sbin/nologin\n"});
  layer.files.push_back(container::ImageFile{"/etc/hosts", 0, 0644,
                                             container::FileClass::kConfig,
                                             "127.0.0.1 localhost\n"});
  layer.files.push_back(container::ImageFile{"/etc/resolv.conf", 0, 0644,
                                             container::FileClass::kConfig,
                                             "nameserver 10.0.0.2\n"});
  image.AddLayer(std::move(layer));
  image.entrypoint() = "/usr/bin/" + app;
  image.env()["PATH"] = "/usr/bin:/bin";
  // Attach copies the environment out of /proc/<pid>/environ in 4 KiB
  // reads; its seeded 1-64 KiB size moves attach_ms by up to 16 reads.
  const uint64_t vars = 16 + rng.Below(1350);
  for (uint64_t i = 0; i < vars; ++i) {
    image.env()["APP_SETTING_" + std::to_string(i)] = std::string(32, static_cast<char>('a' + i % 26));
  }
  return image;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tools-session") {
    return std::make_unique<ToolsSession>(seed);
  }
  if (name == "bulk-stream") {
    return std::make_unique<BulkStream>(seed);
  }
  if (name == "fleet-rw") {
    return std::make_unique<FleetRw>(seed);
  }
  return nullptr;
}

StatusOr<std::unique_ptr<World>> World::Build(Workload& workload, bool native,
                                              SetupRecord* record) {
  auto world = std::unique_ptr<World>(new World());
  world->kernel_ = kernel::Kernel::Create(MachineConfig());
  kernel::Kernel* k = world->kernel_.get();
  kernel::ProcessPtr host = k->Fork(*k->init(), "populate");
  CNTR_RETURN_IF_ERROR(workload.Populate(*k, *host));
  k->Exit(*host);

  const int n = workload.num_clients();
  if (native) {
    for (int i = 0; i < n; ++i) {
      Client c;
      c.proc = k->Fork(*k->init(), "client" + std::to_string(i));
      c.proc->env["PATH"] = "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin";
      auto shell = std::make_unique<cntr::core::ToolboxShell>(k, c.proc);
      cntr::core::ToolboxShell* raw = shell.get();
      c.exec = [raw](const std::string& cmd) { return raw->Execute(cmd); };
      world->shells_.push_back(std::move(shell));
      world->clients_.push_back(std::move(c));
    }
  } else {
    world->runtime_ = std::make_unique<container::ContainerRuntime>(k);
    world->registry_ = std::make_unique<container::Registry>(&k->clock());
    world->docker_ =
        std::make_shared<container::DockerEngine>(world->runtime_.get(), world->registry_.get());
    world->cntr_ = std::make_unique<cntr::core::Cntr>(k);
    world->cntr_->RegisterEngine(world->docker_);
    if (n > 1) {
      cntr::fuse::FuseServerPoolOptions pool_opts;
      pool_opts.metrics = &k->metrics();
      // No background controller: the ring transport counts a submission
      // into FuseConn::queued_depth() only after publishing it, so a fast
      // reap can wrap the unsigned depth below zero for an instant; a
      // controller pass that samples it then hard-sheds a healthy mount and
      // its calls fail with ETIMEDOUT (see perfbench/README.md).
      pool_opts.controller_interval_ms = 0;
      world->pool_ = std::make_unique<cntr::fuse::FuseServerPool>(pool_opts);
    }
    for (int i = 0; i < n; ++i) {
      CNTR_RETURN_IF_ERROR(
          world->docker_->Run("app" + std::to_string(i), workload.AppImage(i)).status());
    }
    for (int i = 0; i < n; ++i) {
      cntr::core::AttachOptions opts;
      opts.server_pool = world->pool_.get();
      const uint64_t v0 = k->clock().NowNs();
      const uint64_t h0 = HostNowNs();
      auto session = world->cntr_->Attach("docker", "app" + std::to_string(i), opts);
      if (!session.ok()) {
        return session.status();
      }
      record->attach_host_ms.push_back(static_cast<double>(HostNowNs() - h0) / 1e6);
      record->attach_virt_ms.push_back(static_cast<double>(k->clock().NowNs() - v0) / 1e6);
      cntr::core::AttachedSession* s = session.value().get();
      if (i == 0) {
        record->attach_fuse_requests = s->fuse_fs()->conn().stats().requests;
      }
      Client c;
      c.proc = s->attach_proc();
      c.exec = [s](const std::string& cmd) { return s->Execute(cmd); };
      world->sessions_.push_back(std::move(session.value()));
      world->clients_.push_back(std::move(c));
    }
  }
  for (int i = 0; i < n; ++i) {
    Client& c = world->clients_[static_cast<size_t>(i)];
    c.id = static_cast<uint32_t>(i);
    c.kernel = k;
    c.lane = std::make_shared<cntr::SimClock::Lane>();
    c.rec = std::make_unique<Recorder>(c.lane, c.id);
    workload.InitClient(c);
  }
  RunRound(*world, workload, -1, /*traced=*/false);
  for (Client& c : world->clients_) {
    record->warmup_failed += c.rec->failed();
    c.rec = std::make_unique<Recorder>(c.lane, c.id);
  }
  return world;
}

World::~World() = default;

Status World::Detach(SetupRecord* record) {
  Status result = Status::Ok();
  for (auto& session : sessions_) {
    const uint64_t h0 = HostNowNs();
    Status st = session->Detach();
    record->detach_host_ms.push_back(static_cast<double>(HostNowNs() - h0) / 1e6);
    if (!st.ok() && result.ok()) {
      result = st;
    }
  }
  return result;
}

std::unique_ptr<LayerProbe> World::MakeProbe() {
  std::vector<cntr::fuse::FuseConn*> conns;
  for (auto& session : sessions_) {
    conns.push_back(&session->fuse_fs()->conn());
  }
  return std::make_unique<LayerProbe>(kernel_.get(), std::move(conns), pool_.get());
}

size_t World::NodeTableSize() const {
  size_t total = 0;
  for (const auto& session : sessions_) {
    total += session->cntrfs()->NodeTableSize();
  }
  return total;
}

uint64_t World::MaxQueueDepth() const {
  uint64_t depth = 0;
  for (const auto& session : sessions_) {
    depth = std::max(depth, session->fuse_fs()->conn().stats().max_queue_depth);
  }
  return depth;
}

void RunRound(World& world, Workload& workload, int round, bool traced) {
  for (Client& c : world.clients()) {
    cntr::SimClock::LaneScope lane(c.lane);
    c.rec->BeginRound(static_cast<uint32_t>(round < 0 ? 0 : round), traced);
    workload.Round(c, round);
    c.rec->EndRound();
    if (round == workload.prefix_rounds() - 1) {
      c.rec->MarkPrefix();
    }
  }
}

}  // namespace perfbench
