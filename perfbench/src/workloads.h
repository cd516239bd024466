// The three benchmark workloads and the world they run in.
//
// A world is one simulated host: a fresh kernel on the pinned machine, the
// workload's seeded files on the host, and either slim containers attached
// through `Cntr::Attach` (the measured side) or plain host processes (the
// native replay behind overhead_x). Workload code issues the same seeded
// calls on both sides; only the process it calls as differs.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/record.h"
#include "src/container/engine.h"
#include "src/core/attach.h"
#include "src/core/shell.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"

namespace perfbench {

// One closed-loop client: it sends its next call only after the previous
// one returned.
struct Client {
  uint32_t id = 0;
  cntr::kernel::Kernel* kernel = nullptr;
  cntr::kernel::ProcessPtr proc;
  std::function<std::string(const std::string&)> exec;  // a shell command
  cntr::SimClock::LanePtr lane;  // the client's own virtual timeline
  std::unique_ptr<Recorder> rec;
  // Expected content of the client's own file (fleet-rw).
  std::vector<char> shadow;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int num_clients() const { return 1; }
  // Rounds the virtual metrics and the native replay cover.
  virtual int prefix_rounds() const = 0;
  // Seeded slim image for container `index`.
  virtual cntr::container::Image AppImage(int index) const;
  // Writes the host files a fresh kernel starts from, as `host`.
  virtual cntr::Status Populate(cntr::kernel::Kernel& kernel, cntr::kernel::Process& host) = 0;
  // Per-client state both sides start from.
  virtual void InitClient(Client& /*client*/) const {}
  // One round of calls for one client; round < 0 is the warm-up.
  virtual void Round(Client& client, int round) = 0;

 protected:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  uint64_t seed_;
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

struct SetupRecord {
  std::vector<double> attach_virt_ms;
  std::vector<double> attach_host_ms;
  std::vector<double> detach_host_ms;
  uint64_t attach_fuse_requests = 0;
  uint64_t warmup_failed = 0;
};

class World {
 public:
  // Boots the kernel, populates the host, starts and attaches the
  // containers (or, native, forks host clients) and runs the warm-up.
  static cntr::StatusOr<std::unique_ptr<World>> Build(Workload& workload, bool native,
                                                      SetupRecord* record);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Tears every attach session down, recording each detach's host time.
  cntr::Status Detach(SetupRecord* record);

  std::vector<Client>& clients() { return clients_; }
  std::unique_ptr<LayerProbe> MakeProbe();
  size_t NodeTableSize() const;
  uint64_t MaxQueueDepth() const;
  const cntr::fuse::FuseServerPool* pool() const { return pool_.get(); }

 private:
  World() = default;

  std::unique_ptr<cntr::kernel::Kernel> kernel_;
  std::unique_ptr<cntr::container::ContainerRuntime> runtime_;
  std::unique_ptr<cntr::container::Registry> registry_;
  std::shared_ptr<cntr::container::DockerEngine> docker_;
  std::unique_ptr<cntr::core::Cntr> cntr_;
  std::unique_ptr<cntr::fuse::FuseServerPool> pool_;
  std::vector<std::unique_ptr<cntr::core::AttachedSession>> sessions_;
  std::vector<std::unique_ptr<cntr::core::ToolboxShell>> shells_;
  std::vector<Client> clients_;
};

// Runs round `round` on every client of `world`, each on its own SimClock
// lane. The clients take turns on the calling thread: their lanes still run
// in parallel in virtual time, and no result depends on how real threads
// interleave (with one thread per fleet-rw client, a seed's virtual
// ops_per_s drifted by 6-13% between runs). Round `prefix_rounds - 1`
// freezes the clients' prefix figures.
void RunRound(World& world, Workload& workload, int round, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
