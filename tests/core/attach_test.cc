// End-to-end attach tests: the full CNTR workflow against running
// containers on the simulated kernel — the paper's three use cases
// (container→container, host→container, container→host) plus teardown.
#include <gtest/gtest.h>

#include "src/container/engine.h"
#include "src/core/attach.h"
#include "src/kernel/kernel.h"

namespace cntr::core {
namespace {

using container::ContainerEngine;
using container::ContainerRuntime;
using container::ContainerSpec;
using container::DockerEngine;
using container::Image;
using container::ImageFile;
using container::Layer;
using container::MakeFatToolsImage;
using container::Registry;

Image MakeSlimAppImage(const std::string& app) {
  Image image("app/" + app, "slim");
  Layer layer;
  layer.id = "app-" + app;
  layer.files.push_back(ImageFile{"/usr/bin/" + app, 12 << 20, 0755,
                                  container::FileClass::kAppBinary, ""});
  layer.files.push_back(ImageFile{"/etc/" + app + ".conf", 0, 0644,
                                  container::FileClass::kConfig, "port=5432\n"});
  layer.files.push_back(ImageFile{"/etc/passwd", 0, 0644, container::FileClass::kConfig,
                                  app + ":x:100:100::/var/lib/" + app + ":/sbin/nologin\n"});
  image.AddLayer(std::move(layer));
  image.entrypoint() = "/usr/bin/" + app;
  image.env()["PATH"] = "/usr/bin:/bin";
  image.env()["APP_MODE"] = "production";
  return image;
}

class AttachTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = kernel::Kernel::Create();
    runtime_ = std::make_unique<ContainerRuntime>(kernel_.get());
    registry_ = std::make_unique<Registry>(&kernel_->clock());
    docker_ = std::make_shared<DockerEngine>(runtime_.get(), registry_.get());
    cntr_ = std::make_unique<Cntr>(kernel_.get());
    cntr_->RegisterEngine(docker_);
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<ContainerRuntime> runtime_;
  std::unique_ptr<Registry> registry_;
  std::shared_ptr<DockerEngine> docker_;
  std::unique_ptr<Cntr> cntr_;
};

TEST_F(AttachTest, HostToContainerDebugging) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // The application's filesystem is visible at /var/lib/cntr.
  std::string conf = session.value()->Execute("cat /var/lib/cntr/etc/mysql.conf");
  EXPECT_EQ(conf, "port=5432\n");

  // The tools filesystem at / is the host's: /data (the host ExtFs mount
  // point) exists there, which no container image ships.
  std::string ls = session.value()->Execute("ls /");
  EXPECT_NE(ls.find("data"), std::string::npos) << ls;

  // The app binary is where the image put it.
  std::string stat = session.value()->Execute("stat /var/lib/cntr/usr/bin/mysql");
  EXPECT_NE(stat.find("size=12582912"), std::string::npos) << stat;
}

TEST_F(AttachTest, ContainerToContainerWithFatImage) {
  auto db = docker_->Run("db", MakeSlimAppImage("postgres"));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto tools = docker_->Run("debug-tools", MakeFatToolsImage());
  ASSERT_TRUE(tools.ok()) << tools.status().ToString();

  AttachOptions opts;
  opts.fat_container = "debug-tools";
  auto session = cntr_->Attach("docker", "db", opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // gdb comes from the fat container through CntrFS.
  EXPECT_EQ(session.value()->Execute("which gdb"), "/usr/bin/gdb\n");
  EXPECT_EQ(session.value()->Execute("which vim"), "/usr/bin/vim\n");
  // The slim container has no gdb of its own.
  std::string app_gdb = session.value()->Execute("stat /var/lib/cntr/usr/bin/gdb");
  EXPECT_NE(app_gdb.find("stat:"), std::string::npos);

  // Config files are the application's, bound over the tools image's
  // (paper §3.2.3): /etc/passwd shows the postgres user, not the fat image.
  std::string passwd = session.value()->Execute("cat /etc/passwd");
  EXPECT_NE(passwd.find("postgres"), std::string::npos) << passwd;
}

TEST_F(AttachTest, ToolsSeeApplicationProcesses) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());

  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // /proc inside the nested namespace is the container's: pid 1 is the
  // container init, and gdb can "attach" to it.
  std::string ps = session.value()->Execute("ps");
  EXPECT_NE(ps.find("/usr/bin/mysql"), std::string::npos) << ps;
  std::string gdb = session.value()->Execute("gdb -p 1");
  EXPECT_NE(gdb.find("Attaching to process 1"), std::string::npos) << gdb;
}

TEST_F(AttachTest, EnvironmentAppliedExceptPath) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok());

  std::string env = session.value()->Execute("env");
  // Container env travels...
  EXPECT_NE(env.find("APP_MODE=production"), std::string::npos) << env;
  // ...but PATH is the debug side's, not the slim image's restricted one
  // (paper §3.2.3).
  EXPECT_EQ(env.find("PATH=/usr/bin:/bin\n"), std::string::npos) << env;
}

TEST_F(AttachTest, WritesThroughAppMountReachContainer) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok());

  // Edit-in-place workflow from the paper's conclusion: write a config via
  // the attach shell, observe it inside the container.
  session.value()->Execute("write /var/lib/cntr/etc/new.conf tuned=1");
  auto& app_init = *db.value()->init_proc();
  auto fd = kernel_->Open(app_init, "/etc/new.conf", kernel::kORdOnly);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  char buf[64] = {};
  auto n = kernel_->Read(app_init, fd.value(), buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "tuned=1");
}

TEST_F(AttachTest, CapabilitiesDroppedToContainerSet) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok());

  const auto& creds = session.value()->attach_proc()->creds;
  // Docker's default set excludes CAP_SYS_ADMIN.
  EXPECT_FALSE(creds.HasCap(kernel::Capability::kSysAdmin));
  EXPECT_TRUE(creds.HasCap(kernel::Capability::kChown));
}

TEST_F(AttachTest, HostnameIsTheContainers) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok());
  std::string hostname = session.value()->Execute("hostname");
  EXPECT_EQ(hostname, db.value()->id().substr(0, 12) + "\n");
}

TEST_F(AttachTest, AttachByIdPrefix) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  std::string prefix = db.value()->id().substr(0, 12);
  auto session = cntr_->Attach("docker", prefix);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
}

TEST_F(AttachTest, AttachToMissingContainerFails) {
  auto session = cntr_->Attach("docker", "ghost");
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.error(), ENOENT);
}

TEST_F(AttachTest, AttachToStoppedContainerFails) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  kernel::Pid pid = db.value()->init_proc()->global_pid();
  ASSERT_TRUE(runtime_->Stop(db.value()).ok());
  auto session = cntr_->AttachPid(pid, AttachOptions{});
  EXPECT_FALSE(session.ok());
}

TEST_F(AttachTest, DetachStopsServerAndProcesses) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok());
  kernel::Pid attach_pid = session.value()->attach_proc()->global_pid();
  ASSERT_TRUE(session.value()->Detach().ok());
  EXPECT_EQ(kernel_->procs().Get(attach_pid), nullptr);
  // Filesystem requests after detach fail cleanly (connection aborted).
  EXPECT_NE(session.value()->Execute("ls /"), "");
}

// fuse.num_channels is the channel count of every mount, plain attach
// included (0 = one channel per server thread).
TEST_F(AttachTest, AttachHonoursTheMountChannelCount) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  AttachOptions opts;
  opts.fuse.num_channels = 4;
  auto session = cntr_->Attach("docker", "db", opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session.value()->fuse_fs()->conn().num_channels(), 4u);
  // The tools tree at / is the CNTRFS mount, served across the four queues.
  std::string ls = session.value()->Execute("ls /");
  EXPECT_NE(ls.find("data"), std::string::npos) << ls;
}

TEST_F(AttachTest, InteractiveShellOverPty) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());
  auto session = cntr_->Attach("docker", "db");
  ASSERT_TRUE(session.ok());

  session.value()->StartInteractiveShell();
  ASSERT_TRUE(session.value()->pty().WriteLineToShell("cat /var/lib/cntr/etc/mysql.conf").ok());
  // Wait for the prompt marker.
  std::string out;
  for (int i = 0; i < 200 && out.find("$ ") == std::string::npos; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    out += session.value()->pty().DrainShellOutput();
  }
  EXPECT_NE(out.find("port=5432"), std::string::npos) << out;
}

TEST_F(AttachTest, SocketForwardingBetweenContainerAndHost) {
  auto db = docker_->Run("db", MakeSlimAppImage("mysql"));
  ASSERT_TRUE(db.ok());

  // Host-side server socket ("X11").
  auto host_proc = kernel_->Fork(*kernel_->init(), "x11");
  auto listen = kernel_->SocketListen(*host_proc, "/tmp/x11.sock");
  ASSERT_TRUE(listen.ok());

  AttachOptions opts;
  opts.socket_forwards = {{"/tmp/x11.sock", "/tmp/x11.sock"}};
  auto session = cntr_->Attach("docker", "db", opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // A client inside the application container connects to the forwarded
  // socket; the proxy splices to the host server.
  auto& app_init = *db.value()->init_proc();
  kernel::Fd client = -1;
  for (int i = 0; i < 100; ++i) {
    auto attempt = kernel_->SocketConnect(app_init, "/tmp/x11.sock");
    if (attempt.ok()) {
      client = attempt.value();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(client, 0);

  auto server_conn = kernel_->SocketAccept(*host_proc, listen.value());
  ASSERT_TRUE(server_conn.ok()) << server_conn.status().ToString();

  // Round trip through the proxy.
  ASSERT_TRUE(kernel_->Write(app_init, client, "hello x11", 9).ok());
  char buf[32] = {};
  size_t got = 0;
  for (int i = 0; i < 300 && got < 9; ++i) {
    auto n = kernel_->Read(*host_proc, server_conn.value(), buf + got, sizeof(buf) - got);
    if (n.ok()) {
      got += n.value();
    }
    if (got < 9) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(std::string(buf, got), "hello x11");
  EXPECT_GE(session.value()->socket_proxy()->stats().connections, 1u);
}

}  // namespace
}  // namespace cntr::core
