// VFS-level tests: open/read/write/seek, directories, links, permissions,
// xattrs, and stat coherence — all against the boot tmpfs and the /data
// ExtFs of a freshly created kernel.
#include <gtest/gtest.h>

#include <string>

#include "src/kernel/kernel.h"

namespace cntr::kernel {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = Kernel::Create();
    proc_ = kernel_->init();
  }

  std::string ReadAll(const std::string& path) {
    auto fd = kernel_->Open(*proc_, path, kORdOnly);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    std::string out;
    char buf[4096];
    while (true) {
      auto n = kernel_->Read(*proc_, fd.value(), buf, sizeof(buf));
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      if (!n.ok() || n.value() == 0) {
        break;
      }
      out.append(buf, n.value());
    }
    EXPECT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
    return out;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    auto fd = kernel_->Open(*proc_, path, kOWrOnly | kOCreat | kOTrunc, 0644);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto n = kernel_->Write(*proc_, fd.value(), content.data(), content.size());
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(n.value(), content.size());
    ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  }

  std::unique_ptr<Kernel> kernel_;
  ProcessPtr proc_;
};

TEST_F(VfsTest, BootCreatesStandardHierarchy) {
  for (const char* dir : {"/proc", "/dev", "/tmp", "/data", "/etc", "/usr", "/var", "/run"}) {
    auto attr = kernel_->Stat(*proc_, dir);
    ASSERT_TRUE(attr.ok()) << dir << ": " << attr.status().ToString();
    EXPECT_TRUE(IsDir(attr->mode)) << dir;
  }
}

TEST_F(VfsTest, WriteThenReadBack) {
  WriteFile("/tmp/hello.txt", "hello world");
  EXPECT_EQ(ReadAll("/tmp/hello.txt"), "hello world");
}

TEST_F(VfsTest, WriteReadBackOnDiskFs) {
  WriteFile("/data/file.bin", std::string(100000, 'x'));
  EXPECT_EQ(ReadAll("/data/file.bin"), std::string(100000, 'x'));
}

TEST_F(VfsTest, ReadAfterFsyncAndCacheDrop) {
  WriteFile("/data/durable.txt", "persisted");
  auto fd = kernel_->Open(*proc_, "/data/durable.txt", kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  // After fsync the disk holds the bytes even if the cache drops them.
  kernel_->page_cache().DropAll(nullptr);  // no-op owner; sanity only
  EXPECT_EQ(ReadAll("/data/durable.txt"), "persisted");
}

TEST_F(VfsTest, OpenNonexistentFails) {
  auto fd = kernel_->Open(*proc_, "/tmp/missing", kORdOnly);
  EXPECT_EQ(fd.error(), ENOENT);
}

TEST_F(VfsTest, OCreatExclFailsIfExists) {
  WriteFile("/tmp/a", "x");
  auto fd = kernel_->Open(*proc_, "/tmp/a", kOWrOnly | kOCreat | kOExcl);
  EXPECT_EQ(fd.error(), EEXIST);
}

TEST_F(VfsTest, AppendModeWritesAtEof) {
  WriteFile("/tmp/log", "one");
  auto fd = kernel_->Open(*proc_, "/tmp/log", kOWrOnly | kOAppend);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), "two", 3).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  EXPECT_EQ(ReadAll("/tmp/log"), "onetwo");
}

TEST_F(VfsTest, LseekEndAndHoleReads) {
  WriteFile("/tmp/sparse", "abc");
  auto fd = kernel_->Open(*proc_, "/tmp/sparse", kORdWr);
  ASSERT_TRUE(fd.ok());
  auto pos = kernel_->Lseek(*proc_, fd.value(), 10, kSeekSet);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), "z", 1).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  std::string content = ReadAll("/tmp/sparse");
  ASSERT_EQ(content.size(), 11u);
  EXPECT_EQ(content.substr(0, 3), "abc");
  EXPECT_EQ(content[5], '\0');  // hole reads as zeros
  EXPECT_EQ(content[10], 'z');
}

TEST_F(VfsTest, MkdirRmdirLifecycle) {
  ASSERT_TRUE(kernel_->Mkdir(*proc_, "/tmp/dir").ok());
  auto attr = kernel_->Stat(*proc_, "/tmp/dir");
  ASSERT_TRUE(attr.ok());
  EXPECT_TRUE(IsDir(attr->mode));
  EXPECT_EQ(kernel_->Rmdir(*proc_, "/tmp/dir").error(), 0);
  EXPECT_EQ(kernel_->Stat(*proc_, "/tmp/dir").error(), ENOENT);
}

TEST_F(VfsTest, RmdirNonEmptyFails) {
  ASSERT_TRUE(kernel_->Mkdir(*proc_, "/tmp/dir").ok());
  WriteFile("/tmp/dir/f", "x");
  EXPECT_EQ(kernel_->Rmdir(*proc_, "/tmp/dir").error(), ENOTEMPTY);
}

TEST_F(VfsTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(kernel_->Mkdir(*proc_, "/tmp/dir").ok());
  EXPECT_EQ(kernel_->Unlink(*proc_, "/tmp/dir").error(), EISDIR);
}

TEST_F(VfsTest, HardlinkSharesInodeAndData) {
  WriteFile("/tmp/orig", "data");
  ASSERT_TRUE(kernel_->Link(*proc_, "/tmp/orig", "/tmp/alias").ok());
  auto a = kernel_->Stat(*proc_, "/tmp/orig");
  auto b = kernel_->Stat(*proc_, "/tmp/alias");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ino, b->ino);
  EXPECT_EQ(a->nlink, 2u);
  EXPECT_EQ(ReadAll("/tmp/alias"), "data");
  ASSERT_TRUE(kernel_->Unlink(*proc_, "/tmp/orig").ok());
  auto c = kernel_->Stat(*proc_, "/tmp/alias");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->nlink, 1u);
  EXPECT_EQ(ReadAll("/tmp/alias"), "data");
}

TEST_F(VfsTest, SymlinkResolution) {
  WriteFile("/tmp/target", "via-link");
  ASSERT_TRUE(kernel_->Symlink(*proc_, "/tmp/target", "/tmp/link").ok());
  EXPECT_EQ(ReadAll("/tmp/link"), "via-link");
  auto lst = kernel_->Lstat(*proc_, "/tmp/link");
  ASSERT_TRUE(lst.ok());
  EXPECT_TRUE(IsLnk(lst->mode));
  auto target = kernel_->Readlink(*proc_, "/tmp/link");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "/tmp/target");
}

TEST_F(VfsTest, RelativeSymlinkResolution) {
  ASSERT_TRUE(kernel_->Mkdir(*proc_, "/tmp/sub").ok());
  WriteFile("/tmp/sub/real", "rel");
  ASSERT_TRUE(kernel_->Symlink(*proc_, "real", "/tmp/sub/ln").ok());
  EXPECT_EQ(ReadAll("/tmp/sub/ln"), "rel");
}

TEST_F(VfsTest, SymlinkLoopFailsWithEloop) {
  ASSERT_TRUE(kernel_->Symlink(*proc_, "/tmp/b", "/tmp/a").ok());
  ASSERT_TRUE(kernel_->Symlink(*proc_, "/tmp/a", "/tmp/b").ok());
  EXPECT_EQ(kernel_->Open(*proc_, "/tmp/a", kORdOnly).error(), ELOOP);
}

TEST_F(VfsTest, RenameMovesFile) {
  WriteFile("/tmp/from", "content");
  ASSERT_TRUE(kernel_->Rename(*proc_, "/tmp/from", "/tmp/to").ok());
  EXPECT_EQ(kernel_->Stat(*proc_, "/tmp/from").error(), ENOENT);
  EXPECT_EQ(ReadAll("/tmp/to"), "content");
}

TEST_F(VfsTest, RenameReplacesExisting) {
  WriteFile("/tmp/a", "aaa");
  WriteFile("/tmp/b", "bbb");
  ASSERT_TRUE(kernel_->Rename(*proc_, "/tmp/a", "/tmp/b").ok());
  EXPECT_EQ(ReadAll("/tmp/b"), "aaa");
}

TEST_F(VfsTest, RenameNoreplaceFails) {
  WriteFile("/tmp/a", "aaa");
  WriteFile("/tmp/b", "bbb");
  EXPECT_EQ(kernel_->Rename(*proc_, "/tmp/a", "/tmp/b", kRenameNoreplace).error(), EEXIST);
}

TEST_F(VfsTest, RenameExchangeSwaps) {
  WriteFile("/tmp/a", "aaa");
  WriteFile("/tmp/b", "bbb");
  ASSERT_TRUE(kernel_->Rename(*proc_, "/tmp/a", "/tmp/b", kRenameExchange).ok());
  EXPECT_EQ(ReadAll("/tmp/a"), "bbb");
  EXPECT_EQ(ReadAll("/tmp/b"), "aaa");
}

TEST_F(VfsTest, RenameDirIntoOwnSubtreeFails) {
  ASSERT_TRUE(kernel_->Mkdir(*proc_, "/tmp/d").ok());
  ASSERT_TRUE(kernel_->Mkdir(*proc_, "/tmp/d/sub").ok());
  EXPECT_EQ(kernel_->Rename(*proc_, "/tmp/d", "/tmp/d/sub/d2").error(), EINVAL);
}

TEST_F(VfsTest, GetdentsListsEntries) {
  ASSERT_TRUE(kernel_->Mkdir(*proc_, "/tmp/list").ok());
  WriteFile("/tmp/list/one", "1");
  WriteFile("/tmp/list/two", "2");
  auto fd = kernel_->Open(*proc_, "/tmp/list", kORdOnly | kODirectory);
  ASSERT_TRUE(fd.ok());
  auto entries = kernel_->Getdents(*proc_, fd.value());
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& e : entries.value()) {
    names.push_back(e.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{".", "..", "one", "two"}));
}

TEST_F(VfsTest, TruncateShrinksAndZeroExtends) {
  WriteFile("/tmp/t", "1234567890");
  ASSERT_TRUE(kernel_->Truncate(*proc_, "/tmp/t", 4).ok());
  EXPECT_EQ(ReadAll("/tmp/t"), "1234");
  ASSERT_TRUE(kernel_->Truncate(*proc_, "/tmp/t", 8).ok());
  std::string content = ReadAll("/tmp/t");
  ASSERT_EQ(content.size(), 8u);
  EXPECT_EQ(content.substr(0, 4), "1234");
  EXPECT_EQ(content[6], '\0');

  // tmpfs is sparse: growing across several pages leaves a hole, which
  // reads as zeros up to the new size.
  const uint64_t big = 5 * kPageSize + 123;
  ASSERT_TRUE(kernel_->Truncate(*proc_, "/tmp/t", big).ok());
  content = ReadAll("/tmp/t");
  ASSERT_EQ(content.size(), big);
  EXPECT_EQ(content.substr(0, 4), "1234");
  EXPECT_EQ(content.find_first_not_of('\0', 4), std::string::npos);
  // The hole still counts as file data (blocks, statfs and ENOSPC see it).
  auto attr = kernel_->Stat(*proc_, "/tmp/t");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->blocks, (big + 511) / 512);

  // A write into the middle of the hole lands there; zeros on both sides.
  const uint64_t mid = 2 * kPageSize + 100;
  auto fd = kernel_->Open(*proc_, "/tmp/t", kOWrOnly);
  ASSERT_TRUE(fd.ok());
  auto n = kernel_->Pwrite(*proc_, fd.value(), "hole", 4, mid);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 4u);
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  content = ReadAll("/tmp/t");
  ASSERT_EQ(content.size(), big);
  EXPECT_EQ(content.substr(mid, 4), "hole");
  EXPECT_EQ(content.find_first_not_of('\0', 4), mid);
  EXPECT_EQ(content.find_first_not_of('\0', mid + 4), std::string::npos);

  // Truncating down into written bytes cuts them: growing again must not
  // bring them back.
  ASSERT_TRUE(kernel_->Truncate(*proc_, "/tmp/t", mid + 2).ok());
  ASSERT_TRUE(kernel_->Truncate(*proc_, "/tmp/t", 6 * kPageSize).ok());
  content = ReadAll("/tmp/t");
  ASSERT_EQ(content.size(), 6 * kPageSize);
  EXPECT_EQ(content.substr(0, 4), "1234");
  EXPECT_EQ(content.substr(mid, 4), std::string("ho\0\0", 4));
  EXPECT_EQ(content.find_first_not_of('\0', mid + 2), std::string::npos);
  ASSERT_TRUE(kernel_->Truncate(*proc_, "/tmp/t", 2).ok());
  ASSERT_TRUE(kernel_->Truncate(*proc_, "/tmp/t", 10).ok());
  EXPECT_EQ(ReadAll("/tmp/t"), std::string("12\0\0\0\0\0\0\0\0", 10));
}

TEST_F(VfsTest, ChmodChownUpdateAttrs) {
  WriteFile("/tmp/perm", "x");
  ASSERT_TRUE(kernel_->Chmod(*proc_, "/tmp/perm", 0640).ok());
  ASSERT_TRUE(kernel_->Chown(*proc_, "/tmp/perm", 1000, 1000).ok());
  auto attr = kernel_->Stat(*proc_, "/tmp/perm");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->mode & kPermMask, 0640u);
  EXPECT_EQ(attr->uid, 1000u);
  EXPECT_EQ(attr->gid, 1000u);
}

TEST_F(VfsTest, PermissionDeniedForOtherUser) {
  WriteFile("/tmp/secret", "root only");
  ASSERT_TRUE(kernel_->Chmod(*proc_, "/tmp/secret", 0600).ok());
  auto user = kernel_->Fork(*proc_, "user");
  user->creds = Credentials::User(1000, 1000);
  EXPECT_EQ(kernel_->Open(*user, "/tmp/secret", kORdOnly).error(), EACCES);
  // The owner (root, via DAC override) still reads it.
  EXPECT_EQ(ReadAll("/tmp/secret"), "root only");
}

TEST_F(VfsTest, SetgidBitClearedOnChmodByNonGroupMember) {
  WriteFile("/tmp/sg", "x");
  ASSERT_TRUE(kernel_->Chown(*proc_, "/tmp/sg", 1000, 2000).ok());
  auto user = kernel_->Fork(*proc_, "user");
  user->creds = Credentials::User(1000, 1000);  // owner, but not in group 2000
  ASSERT_TRUE(kernel_->Chmod(*user, "/tmp/sg", 02755).ok());
  auto attr = kernel_->Stat(*proc_, "/tmp/sg");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->mode & kModeSetGid, 0u) << "setgid must be cleared";
}

TEST_F(VfsTest, XattrRoundTrip) {
  WriteFile("/tmp/x", "x");
  ASSERT_TRUE(kernel_->SetXattr(*proc_, "/tmp/x", "user.key", "value").ok());
  auto v = kernel_->GetXattr(*proc_, "/tmp/x", "user.key");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), "value");
  auto list = kernel_->ListXattr(*proc_, "/tmp/x");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0], "user.key");
  ASSERT_TRUE(kernel_->RemoveXattr(*proc_, "/tmp/x", "user.key").ok());
  EXPECT_EQ(kernel_->GetXattr(*proc_, "/tmp/x", "user.key").error(), ENODATA);
}

TEST_F(VfsTest, StatfsReportsFsType) {
  auto root = kernel_->Statfs(*proc_, "/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->fs_type, "tmpfs");
  auto data = kernel_->Statfs(*proc_, "/data");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->fs_type, "ext4");
}

TEST_F(VfsTest, RlimitFsizeEnforcedOnNativeFs) {
  proc_->rlimits.fsize = 100;
  auto fd = kernel_->Open(*proc_, "/tmp/limited", kOWrOnly | kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::string big(200, 'x');
  EXPECT_EQ(kernel_->Write(*proc_, fd.value(), big.data(), big.size()).error(), EFBIG);
  proc_->rlimits.fsize = UINT64_MAX;
}

TEST_F(VfsTest, DupSharesOffset) {
  WriteFile("/tmp/dup", "abcdef");
  auto fd = kernel_->Open(*proc_, "/tmp/dup", kORdOnly);
  ASSERT_TRUE(fd.ok());
  auto fd2 = kernel_->Dup(*proc_, fd.value());
  ASSERT_TRUE(fd2.ok());
  char buf[3];
  ASSERT_TRUE(kernel_->Read(*proc_, fd.value(), buf, 3).ok());
  auto n = kernel_->Read(*proc_, fd2.value(), buf, 3);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, 3), "def");  // shared cursor advanced
}

TEST_F(VfsTest, NameToHandleWorksOnNativeFs) {
  WriteFile("/tmp/h", "x");
  auto handle = kernel_->NameToHandle(*proc_, "/tmp/h");
  EXPECT_TRUE(handle.ok());
}

TEST_F(VfsTest, ODirectReadsBypassCacheOnExtFs) {
  WriteFile("/data/direct", std::string(8192, 'd'));
  auto fd = kernel_->Open(*proc_, "/data/direct", kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());

  auto dfd = kernel_->Open(*proc_, "/data/direct", kORdOnly | kODirect);
  ASSERT_TRUE(dfd.ok());
  char buf[4096];
  auto n = kernel_->Read(*proc_, dfd.value(), buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), sizeof(buf));
  EXPECT_EQ(buf[0], 'd');
}

}  // namespace
}  // namespace cntr::kernel
