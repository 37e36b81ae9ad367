#include "service/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qufi::service {

namespace {

constexpr const char kHeader[] = "QUFIJRNL 1\n";
constexpr std::size_t kHeaderLen = sizeof(kHeader) - 1;

/// Journal fields are space-separated tokens, so free-form strings (failure
/// reasons, paths) percent-encode space/control bytes. The empty string
/// encodes as a lone "%" — unambiguous, because '%' is otherwise always
/// followed by two hex digits.
std::string encode_field(const std::string& s) {
  if (s.empty()) return "%";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '%' || c == ' ' || u < 0x20) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string decode_field(const std::string& s, const std::string& where) {
  if (s == "%") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) {
      throw Error("journal: truncated %-escape in " + where);
    }
    const auto hex = [&](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      throw Error("journal: bad %-escape in " + where);
    };
    out += static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2]));
    i += 2;
  }
  return out;
}

std::uint64_t parse_u64(std::istringstream& in, const std::string& what) {
  std::uint64_t v = 0;
  if (!(in >> v)) {
    throw Error("journal: bad " + what + " field");
  }
  return v;
}

std::string parse_token(std::istringstream& in, const std::string& what) {
  std::string t;
  if (!(in >> t)) {
    throw Error("journal: missing " + what + " field");
  }
  return t;
}

}  // namespace

const char* journal_event_type_name(JournalEventType type) {
  switch (type) {
    case JournalEventType::Submit: return "submit";
    case JournalEventType::Acquire: return "acquire";
    case JournalEventType::HeartbeatBatch: return "beats";
    case JournalEventType::Requeue: return "requeue";
    case JournalEventType::Quarantine: return "quarantine";
    case JournalEventType::Complete: return "complete";
    case JournalEventType::FailUnknown: return "fail-unknown";
    case JournalEventType::CampaignTerminal: return "terminal";
  }
  return "?";
}

std::string format_journal_event(const JournalEvent& event) {
  std::ostringstream out;
  out << event.seq << ' ' << journal_event_type_name(event.type) << ' '
      << event.at_ms;
  switch (event.type) {
    case JournalEventType::Submit:
      out << ' ' << encode_field(event.campaign) << ' ' << event.priority
          << ' ' << event.shard_count << ' ' << encode_field(event.path);
      break;
    case JournalEventType::Acquire:
      out << ' ' << event.lease_id << ' ' << encode_field(event.campaign)
          << ' ' << event.shard_index << ' ' << event.attempt << ' '
          << encode_field(event.path);
      break;
    case JournalEventType::HeartbeatBatch:
      out << ' ' << event.beats.size();
      for (const auto& [lease, at] : event.beats) {
        out << ' ' << lease << ':' << at;
      }
      break;
    case JournalEventType::Requeue:
      out << ' ' << encode_field(event.campaign) << ' ' << event.shard_index
          << ' ' << event.attempt << ' ' << encode_field(event.detail);
      break;
    case JournalEventType::Quarantine:
      out << ' ' << encode_field(event.campaign) << ' ' << event.shard_index
          << ' ' << encode_field(event.path);
      break;
    case JournalEventType::Complete:
      out << ' ' << event.lease_id << ' ' << encode_field(event.campaign)
          << ' ' << event.shard_index << ' ' << encode_field(event.path);
      break;
    case JournalEventType::FailUnknown:
      out << ' ' << event.lease_id << ' ' << encode_field(event.detail);
      break;
    case JournalEventType::CampaignTerminal:
      out << ' ' << encode_field(event.campaign) << ' '
          << encode_field(event.detail);
      break;
  }
  return out.str();
}

namespace {

JournalEvent parse_event_body(const std::string& body) {
  std::istringstream in(body);
  JournalEvent event;
  event.seq = parse_u64(in, "seq");
  const std::string type = parse_token(in, "type");
  std::int64_t at = 0;
  require(static_cast<bool>(in >> at), "journal: bad at_ms field");
  event.at_ms = at;
  if (type == "submit") {
    event.type = JournalEventType::Submit;
    event.campaign = decode_field(parse_token(in, "campaign"), "submit");
    require(static_cast<bool>(in >> event.priority),
            "journal: bad priority field");
    event.shard_count = static_cast<std::uint32_t>(parse_u64(in, "shards"));
    event.path = decode_field(parse_token(in, "csv"), "submit");
  } else if (type == "acquire") {
    event.type = JournalEventType::Acquire;
    event.lease_id = parse_u64(in, "lease");
    event.campaign = decode_field(parse_token(in, "campaign"), "acquire");
    event.shard_index = static_cast<std::uint32_t>(parse_u64(in, "shard"));
    event.attempt = static_cast<std::uint32_t>(parse_u64(in, "attempt"));
    event.path = decode_field(parse_token(in, "output"), "acquire");
  } else if (type == "beats") {
    event.type = JournalEventType::HeartbeatBatch;
    const std::uint64_t n = parse_u64(in, "beat count");
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string pair = parse_token(in, "beat");
      const auto colon = pair.find(':');
      require(colon != std::string::npos, "journal: bad beat pair");
      event.beats.emplace_back(
          std::stoull(pair.substr(0, colon)),
          static_cast<std::int64_t>(std::stoll(pair.substr(colon + 1))));
    }
  } else if (type == "requeue") {
    event.type = JournalEventType::Requeue;
    event.campaign = decode_field(parse_token(in, "campaign"), "requeue");
    event.shard_index = static_cast<std::uint32_t>(parse_u64(in, "shard"));
    event.attempt = static_cast<std::uint32_t>(parse_u64(in, "attempt"));
    event.detail = decode_field(parse_token(in, "reason"), "requeue");
  } else if (type == "quarantine") {
    event.type = JournalEventType::Quarantine;
    event.campaign = decode_field(parse_token(in, "campaign"), "quarantine");
    event.shard_index = static_cast<std::uint32_t>(parse_u64(in, "shard"));
    event.path = decode_field(parse_token(in, "path"), "quarantine");
  } else if (type == "complete") {
    event.type = JournalEventType::Complete;
    event.lease_id = parse_u64(in, "lease");
    event.campaign = decode_field(parse_token(in, "campaign"), "complete");
    event.shard_index = static_cast<std::uint32_t>(parse_u64(in, "shard"));
    event.path = decode_field(parse_token(in, "path"), "complete");
  } else if (type == "fail-unknown") {
    event.type = JournalEventType::FailUnknown;
    event.lease_id = parse_u64(in, "lease");
    event.detail = decode_field(parse_token(in, "reason"), "fail-unknown");
  } else if (type == "terminal") {
    event.type = JournalEventType::CampaignTerminal;
    event.campaign = decode_field(parse_token(in, "campaign"), "terminal");
    event.detail = decode_field(parse_token(in, "state"), "terminal");
  } else {
    throw Error("journal: unknown record type: " + type);
  }
  return event;
}

}  // namespace

JournalReadResult read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw Error("journal: cannot open: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  JournalReadResult result;
  // Header. A prefix of the header (including an empty file) is what a
  // crash during creation leaves — nothing was acknowledged yet, so it
  // reads as an empty journal with a torn tail at offset 0.
  if (bytes.size() < kHeaderLen) {
    if (std::string(kHeader, bytes.size()) == bytes) {
      result.truncated_tail = !bytes.empty();
      return result;
    }
    throw Error("journal " + path + ": corrupt header at offset 0");
  }
  if (bytes.compare(0, kHeaderLen, kHeader) != 0) {
    throw Error("journal " + path + ": corrupt header at offset 0");
  }

  std::size_t pos = kHeaderLen;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated final line: the torn artifact of a crash mid-append.
      // Everything before it was acknowledged; this record was not.
      result.truncated_tail = true;
      break;
    }
    const std::string line = bytes.substr(pos, nl - pos);
    const auto diagnose = [&](const std::string& why) -> Error {
      return Error("journal " + path + ": " + why + " at offset " +
                   std::to_string(pos) + " (record " +
                   std::to_string(result.events.size() + 1) + ")");
    };
    const std::size_t hash = line.rfind(" #");
    if (hash == std::string::npos || line.size() - hash != 2 + 16) {
      throw diagnose("record without checksum");
    }
    const std::string body = line.substr(0, hash);
    std::uint64_t stored = 0;
    try {
      stored = std::stoull(line.substr(hash + 2), nullptr, 16);
    } catch (const std::exception&) {
      throw diagnose("unparseable checksum");
    }
    if (util::fnv1a64(body) != stored) {
      throw diagnose("checksum mismatch");
    }
    JournalEvent event;
    try {
      event = parse_event_body(body);
    } catch (const Error& e) {
      throw diagnose(std::string("unparseable record (") + e.what() + ")");
    }
    if (event.seq != result.last_seq + 1) {
      throw diagnose("sequence gap (expected " +
                     std::to_string(result.last_seq + 1) + ", found " +
                     std::to_string(event.seq) + ")");
    }
    result.last_seq = event.seq;
    result.events.push_back(std::move(event));
    pos = nl + 1;
    result.valid_bytes = pos;
  }
  return result;
}

JournalWriter::JournalWriter(const std::string& path, std::uint64_t next_seq,
                             std::uint64_t resume_at_bytes)
    : path_(path), next_seq_(next_seq) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) throw Error("journal: cannot open for writing: " + path);
  if (resume_at_bytes == 0) {
    if (::ftruncate(fd_, 0) != 0) {
      throw Error("journal: cannot initialize: " + path);
    }
    if (::write(fd_, kHeader, kHeaderLen) !=
            static_cast<ssize_t>(kHeaderLen)) {
      throw Error("journal: cannot write header: " + path);
    }
    next_seq_ = 1;
    dirty_ = true;
  } else {
    // Drop any torn tail read_journal diagnosed, so the next append starts
    // on a clean line boundary instead of concatenating with crash debris.
    if (::ftruncate(fd_, static_cast<off_t>(resume_at_bytes)) != 0) {
      throw Error("journal: cannot truncate torn tail: " + path);
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      throw Error("journal: seek failed: " + path);
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
  }
}

std::uint64_t JournalWriter::append(JournalEvent event) {
  event.seq = next_seq_++;
  const std::string body = format_journal_event(event);
  char crc[24];
  std::snprintf(crc, sizeof crc, " #%016llx\n",
                static_cast<unsigned long long>(util::fnv1a64(body)));
  const std::string line = body + crc;
  if (::write(fd_, line.data(), line.size()) !=
          static_cast<ssize_t>(line.size())) {
    throw Error("journal: append failed: " + path_);
  }
  dirty_ = true;
  return event.seq;
}

void JournalWriter::sync() {
  if (!dirty_) return;
  if (::fsync(fd_) != 0) throw Error("journal: fsync failed: " + path_);
  dirty_ = false;
}

}  // namespace qufi::service
