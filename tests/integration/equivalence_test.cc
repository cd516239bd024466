// Property-based equivalence: random filesystem operation sequences applied
// both natively and through CntrFS must leave identical observable state.
// This is the strongest functional statement about the passthrough server —
// the in-code analogue of running a fuzzer over the mount.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "src/core/cntrfs.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"
#include "src/util/rng.h"

namespace cntr {
namespace {

// One side: a kernel with a working directory, optionally behind CntrFS.
struct Side {
  std::unique_ptr<kernel::Kernel> kernel;
  kernel::ProcessPtr proc;
  kernel::ProcessPtr server_proc;
  std::unique_ptr<core::CntrFsServer> cntrfs;
  std::unique_ptr<fuse::FuseServerPool> pool;
  std::shared_ptr<fuse::FuseFs> fuse_fs;
  std::string base;

  ~Side() {
    if (fuse_fs != nullptr) {
      fuse_fs->Shutdown();
    }
    pool.reset();
  }
};

std::unique_ptr<Side> MakeSide(bool through_cntr) {
  auto side = std::make_unique<Side>();
  side->kernel = kernel::Kernel::Create();
  auto* k = side->kernel.get();
  if (through_cntr) {
    fuse::RegisterFuseDevice(k);
    side->server_proc = k->Fork(*k->init(), "cntrfs");
    EXPECT_TRUE(k->Unshare(*side->server_proc, kernel::kCloneNewNs).ok());
    auto server = core::CntrFsServer::Create(k, side->server_proc, "/");
    EXPECT_TRUE(server.ok());
    side->cntrfs = std::move(server).value();
    auto dev = fuse::OpenFuseDevice(k, *k->init());
    EXPECT_TRUE(dev.ok());
    side->pool = std::make_unique<fuse::FuseServerPool>(
        fuse::FuseServerPoolOptions::Dedicated(2, &k->metrics()));
    side->pool->AddMount(dev->second, side->cntrfs.get());
    EXPECT_TRUE(k->Mkdir(*k->init(), "/m", 0755).ok());
    auto fs = fuse::MountFuse(k, *k->init(), "/m", dev->second,
                              fuse::FuseMountOptions::Optimized());
    EXPECT_TRUE(fs.ok());
    side->fuse_fs = std::move(fs).value();
    side->base = "/m/tmp/work";
  } else {
    side->base = "/tmp/work";
  }
  side->proc = k->Fork(*k->init(), "prop");
  EXPECT_TRUE(k->Mkdir(*side->proc, side->base, 0755).ok());
  return side;
}

// Applies one scripted op; the script is identical on both sides because
// the RNG is re-seeded identically.
void ApplyOps(Side& side, uint64_t seed, int steps) {
  Rng rng(seed);
  auto* k = side.kernel.get();
  auto& proc = *side.proc;
  std::vector<std::string> files;
  std::vector<std::string> dirs = {""};
  int counter = 0;
  for (int i = 0; i < steps; ++i) {
    uint64_t roll = rng.Below(100);
    if (roll < 25) {  // create file with content
      std::string dir = dirs[rng.Below(dirs.size())];
      std::string rel = dir + "/f" + std::to_string(counter++);
      std::string content(rng.Range(1, 9000), static_cast<char>('a' + rng.Below(26)));
      auto fd = k->Open(proc, side.base + rel,
                        kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
      if (fd.ok()) {
        (void)k->Write(proc, fd.value(), content.data(), content.size());
        (void)k->Close(proc, fd.value());
        files.push_back(rel);
      }
    } else if (roll < 35) {  // mkdir
      std::string rel = dirs[rng.Below(dirs.size())] + "/d" + std::to_string(counter++);
      if (k->Mkdir(proc, side.base + rel).ok()) {
        dirs.push_back(rel);
      }
    } else if (roll < 50 && !files.empty()) {  // overwrite range
      std::string rel = files[rng.Below(files.size())];
      auto fd = k->Open(proc, side.base + rel, kernel::kORdWr);
      if (fd.ok()) {
        char patch[64];
        std::memset(patch, static_cast<char>('A' + rng.Below(26)), sizeof(patch));
        (void)k->Pwrite(proc, fd.value(), patch, sizeof(patch), rng.Below(8192));
        (void)k->Close(proc, fd.value());
      }
    } else if (roll < 60 && !files.empty()) {  // truncate
      std::string rel = files[rng.Below(files.size())];
      (void)k->Truncate(proc, side.base + rel, rng.Below(4096));
    } else if (roll < 70 && !files.empty()) {  // rename
      std::string from = files[rng.Below(files.size())];
      std::string to = dirs[rng.Below(dirs.size())] + "/r" + std::to_string(counter++);
      if (k->Rename(proc, side.base + from, side.base + to).ok()) {
        std::erase(files, from);
        files.push_back(to);
      }
    } else if (roll < 78 && !files.empty()) {  // unlink
      std::string rel = files[rng.Below(files.size())];
      if (k->Unlink(proc, side.base + rel).ok()) {
        std::erase(files, rel);
      }
    } else if (roll < 86 && !files.empty()) {  // hardlink
      std::string target = files[rng.Below(files.size())];
      std::string rel = dirs[rng.Below(dirs.size())] + "/l" + std::to_string(counter++);
      if (k->Link(proc, side.base + target, side.base + rel).ok()) {
        files.push_back(rel);
      }
    } else if (roll < 92 && !files.empty()) {  // symlink
      std::string target = files[rng.Below(files.size())];
      std::string rel = dirs[rng.Below(dirs.size())] + "/s" + std::to_string(counter++);
      (void)k->Symlink(proc, side.base + target, side.base + rel);
    } else if (!files.empty()) {  // append
      std::string rel = files[rng.Below(files.size())];
      auto fd = k->Open(proc, side.base + rel, kernel::kOWrOnly | kernel::kOAppend);
      if (fd.ok()) {
        (void)k->Write(proc, fd.value(), "+app", 4);
        (void)k->Close(proc, fd.value());
      }
    }
  }
}

// Recursively snapshots (path -> type:size:content-prefix) for comparison.
void Snapshot(Side& side, const std::string& rel, std::map<std::string, std::string>* out) {
  auto* k = side.kernel.get();
  auto& proc = *side.proc;
  std::string full = side.base + rel;
  auto attr = k->Lstat(proc, full);
  if (!attr.ok()) {
    (*out)[rel] = "<lstat: " + std::to_string(attr.error()) + ">";
    return;
  }
  if (kernel::IsLnk(attr->mode)) {
    auto target = k->Readlink(proc, full);
    std::string t = target.ok() ? target.value() : "?";
    // Targets are absolute and embed the side-specific base; strip it so
    // only the logical destination is compared.
    if (t.rfind(side.base, 0) == 0) {
      t = t.substr(side.base.size());
    }
    (*out)[rel] = "link:" + t;
    return;
  }
  if (kernel::IsReg(attr->mode)) {
    std::string content;
    auto fd = k->Open(proc, full, kernel::kORdOnly);
    if (fd.ok()) {
      char buf[4096];
      while (true) {
        auto n = k->Read(proc, fd.value(), buf, sizeof(buf));
        if (!n.ok() || n.value() == 0) {
          break;
        }
        content.append(buf, n.value());
      }
      (void)k->Close(proc, fd.value());
    }
    (*out)[rel] = "file:" + std::to_string(attr->size) + ":" +
                  std::to_string(std::hash<std::string>()(content)) + ":nlink" +
                  std::to_string(attr->nlink);
    return;
  }
  if (kernel::IsDir(attr->mode)) {
    (*out)[rel] = "dir";
    auto fd = k->Open(proc, full, kernel::kORdOnly | kernel::kODirectory);
    if (!fd.ok()) {
      return;
    }
    auto entries = k->Getdents(proc, fd.value());
    (void)k->Close(proc, fd.value());
    if (!entries.ok()) {
      return;
    }
    for (const auto& e : entries.value()) {
      if (e.name != "." && e.name != "..") {
        Snapshot(side, rel + "/" + e.name, out);
      }
    }
  }
}

class EquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceTest, RandomOpSequenceProducesIdenticalState) {
  auto native = MakeSide(false);
  auto cntr = MakeSide(true);
  ApplyOps(*native, GetParam(), 150);
  ApplyOps(*cntr, GetParam(), 150);

  // Let FUSE attribute caches expire so snapshots observe server truth.
  native->kernel->clock().Advance(2'000'000'000);
  cntr->kernel->clock().Advance(2'000'000'000);

  std::map<std::string, std::string> native_state;
  std::map<std::string, std::string> cntr_state;
  Snapshot(*native, "", &native_state);
  Snapshot(*cntr, "", &cntr_state);
  // Key-by-key comparison so mismatches name the exact path.
  for (const auto& [path, value] : native_state) {
    auto it = cntr_state.find(path);
    if (it == cntr_state.end()) {
      ADD_FAILURE() << "missing on cntr side: " << path << " = " << value;
    } else {
      EXPECT_EQ(value, it->second) << "state differs at " << path;
    }
  }
  for (const auto& [path, value] : cntr_state) {
    if (native_state.count(path) == 0) {
      ADD_FAILURE() << "extra on cntr side: " << path << " = " << value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Values(11, 23, 37, 41, 53, 67, 79, 97));

}  // namespace
}  // namespace cntr
