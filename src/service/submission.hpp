#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/dispatcher.hpp"

namespace qufi::service {

/// A campaign submission as it travels from qufi_submit to qufid: the
/// campaign *definition* (the same knobs qufi_cli and qufi_shard_plan
/// take), not the planned shards — the dispatcher plans on intake, so a
/// submission stays a dozen lines of text however large the campaign is.
/// Serialized as versioned `key value` lines (docs/DISPATCHER.md).
struct CampaignRequest {
  std::string name;
  int priority = 0;
  std::string circuit = "bv";  ///< bv | dj | qft | ghz | grover
  int width = 4;
  std::string device = "casablanca";
  int opt_level = 3;
  double theta_step = 15.0;
  double phi_step = 15.0;
  double phi_max = 360.0;
  std::uint64_t shots = 0;
  std::uint64_t seed = 0x51754649;
  std::size_t max_points = 0;
  bool double_fault = false;
  bool idle_noise = false;
  std::uint32_t shards = 2;
  std::string policy = "cost";          ///< cost | points | tree
  std::string backend_kind = "density"; ///< density | trajectory
  std::string csv_path;
};

/// Writes `request` to `path` (temp + rename, so a spool watcher never
/// reads a half-written submission). Throws qufi::Error on I/O failure.
void save_submission(const CampaignRequest& request, const std::string& path);

/// Parses a submission written by save_submission. Throws qufi::Error with
/// a line-tagged reason on malformed input or an unsupported version.
CampaignRequest load_submission(const std::string& path);

/// Turns a request into a dispatchable job: builds the circuit and device,
/// plans the shard partition (deterministic — re-planning the same request
/// reproduces identical manifests), and stamps the job's name, priority and
/// CSV path. Throws qufi::Error on unknown circuit/policy/backend names,
/// invalid combinations (idle noise on the trajectory family), or a width
/// outside [1, the worker backend's qubit limit] — checked before the
/// circuit or device is built, so a hostile width never allocates.
CampaignJob plan_submission(const CampaignRequest& request);

/// What happened to one spool file in scan_spool.
struct SpoolOutcome {
  std::string path;         ///< the file as found (before the rename)
  bool accepted = false;
  CampaignRequest request;  ///< the loaded request, when accepted
  std::string error;        ///< why it was rejected, otherwise
};

/// Admits every `*.submission` file in `spool_dir` in sorted
/// (deterministic) order: loads and plans it, hands the job to `submit`,
/// and renames the file to `*.accepted`. A file whose load, plan or submit
/// throws any std::exception — qufi::Error for malformed input, but also
/// std::bad_alloc or anything else — is renamed to `*.rejected` instead, so
/// a hostile submission can neither wedge the intake loop nor end the
/// daemon. A missing spool directory yields no outcomes.
std::vector<SpoolOutcome> scan_spool(
    const std::string& spool_dir,
    const std::function<void(CampaignJob)>& submit);

}  // namespace qufi::service
