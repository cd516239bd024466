// Fixture for the xfstests generic-group port (paper §5.1).
//
// Methodology mirrors the paper: CntrFS is mounted on top of tmpfs and the
// generic tests run against the mount. 90 of the 94 tests must pass; the
// four documented failures (#228, #375, #391, #426) assert the *deviation*,
// exactly as the paper reports it.
#ifndef CNTR_TESTS_XFSTESTS_XFS_FIXTURE_H_
#define CNTR_TESTS_XFSTESTS_XFS_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/cntrfs.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"

namespace cntr::xfstests {

class XfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = kernel::Kernel::Create();
    fuse::RegisterFuseDevice(kernel_.get());

    // Scratch tmpfs, the filesystem under test's backing store.
    auto scratch = kernel::MakeTmpFs(kernel_->AllocDevId(), &kernel_->clock(),
                                     &kernel_->costs());
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/scratch", 0777).ok());
    ASSERT_TRUE(kernel_->MountFs(*kernel_->init(), scratch, "/scratch").ok());

    // CntrFS server over the host view (its own ns clone, so the FUSE
    // mount below is invisible to it).
    server_proc_ = kernel_->Fork(*kernel_->init(), "cntrfs");
    ASSERT_TRUE(kernel_->Unshare(*server_proc_, kernel::kCloneNewNs).ok());
    auto server = core::CntrFsServer::Create(kernel_.get(), server_proc_, "/");
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    cntrfs_ = std::move(server).value();

    auto dev = fuse::OpenFuseDevice(kernel_.get(), *kernel_->init());
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    pool_ = std::make_unique<fuse::FuseServerPool>(
        fuse::FuseServerPoolOptions::Dedicated(2, &kernel_->metrics()));
    pool_->AddMount(dev->second, cntrfs_.get());

    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/mnt", 0755).ok());
    auto mounted = fuse::MountFuse(kernel_.get(), *kernel_->init(), "/mnt", dev->second,
                                   fuse::FuseMountOptions::Optimized());
    ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
    fuse_fs_ = std::move(mounted).value();

    proc_ = kernel_->Fork(*kernel_->init(), "xfstest");
  }

  void TearDown() override {
    if (fuse_fs_ != nullptr) {
      fuse_fs_->Shutdown();
    }
    pool_.reset();
  }

  // Test directory on the CntrFS mount, backed by the scratch tmpfs.
  std::string P(const std::string& rel) { return "/mnt/scratch/" + rel; }

  kernel::Kernel& k() { return *kernel_; }
  kernel::Process& proc() { return *proc_; }

  Status WriteFile(const std::string& path, const std::string& content,
                   kernel::Mode mode = 0644) {
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd,
                          kernel_->Open(*proc_, path,
                                        kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc,
                                        mode));
    Status st = kernel_->Write(*proc_, fd, content.data(), content.size()).status();
    Status closed = kernel_->Close(*proc_, fd);
    return st.ok() ? closed : st;
  }

  std::string ReadFile(const std::string& path) {
    auto fd = kernel_->Open(*proc_, path, kernel::kORdOnly);
    if (!fd.ok()) {
      return "<open failed: " + fd.status().ToString() + ">";
    }
    std::string out;
    char buf[4096];
    while (true) {
      auto n = kernel_->Read(*proc_, fd.value(), buf, sizeof(buf));
      if (!n.ok() || n.value() == 0) {
        break;
      }
      out.append(buf, n.value());
    }
    (void)kernel_->Close(*proc_, fd.value());
    return out;
  }

  StatusOr<kernel::InodeAttr> StatP(const std::string& path) {
    return kernel_->Stat(*proc_, path);
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<fuse::FuseServerPool> pool_;
  std::shared_ptr<fuse::FuseFs> fuse_fs_;
};

}  // namespace cntr::xfstests

#endif  // CNTR_TESTS_XFSTESTS_XFS_FIXTURE_H_
