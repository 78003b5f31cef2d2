#include "src/server/resolver.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/dns/codec.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Fixed memory-model charges per entry, in bytes; not sizeof(), see
// DESIGN.md §14 "Fixed memory-model charges".
constexpr size_t kRequestBytes = 344;
constexpr size_t kTaskBytes = 416;
constexpr size_t kOutstandingBytes = 194;
constexpr size_t kIngressRrlBytes = 116;
constexpr size_t kEgressRlBytes = 68;
constexpr size_t kNsecIntervalBytes = 176;  // Plus the heap blocks of its names.

// Extracts records owned by `name` of the given type from a section.
RrSet OwnedRecords(const std::vector<ResourceRecord>& section, const Name& name,
                   RecordType type) {
  RrSet out;
  for (const auto& rr : section) {
    if (rr.type == type && rr.name == name) {
      out.push_back(rr);
    }
  }
  return out;
}

uint32_t NegativeTtlFrom(const Message& response, uint32_t fallback = 60) {
  for (const auto& rr : response.authority) {
    if (rr.type == RecordType::kSoa) {
      return std::min(rr.ttl, rr.soa().minimum);
    }
  }
  return fallback;
}

}  // namespace

RecursiveResolver::RecursiveResolver(Transport& transport, ResolverConfig config,
                                     uint64_t seed, telemetry::Observer* obs)
    : transport_(transport),
      config_(config),
      rng_(seed),
      cache_(config.cache_max_entries, config.serve_stale ? config.max_stale : 0),
      tracker_(config.upstream, seed ^ 0x7570747261636bULL, obs,
               transport.local_address()),
      obs_(obs) {
  if (obs_ == nullptr) {
    return;
  }
  const telemetry::Labels host = {{"host", FormatAddress(transport_.local_address())}};
  auto labeled = [&](std::string_view key, std::string_view value) {
    telemetry::Labels labels = host;
    labels.emplace_back(key, value);
    return labels;
  };
  const char* lookups_help = "Client requests answered from / missing the cache";
  obs_->Count("resolver_cache_lookups_total", labeled("outcome", "hit"),
              lookups_help, &cache_hit_responses_);
  obs_->Count("resolver_cache_lookups_total", labeled("outcome", "miss"),
              lookups_help, &cache_misses_);
  const char* rate_limited_help =
      "Responses suppressed by ingress RRL / queries dropped by egress RL";
  obs_->Count("resolver_rate_limited_total", labeled("side", "ingress"),
              rate_limited_help, &ingress_rate_limited_);
  obs_->Count("resolver_rate_limited_total", labeled("side", "egress"),
              rate_limited_help, &egress_rate_limited_);
  obs_->Count("resolver_upstream_retries_total", host,
              "Upstream query retransmissions after timeout", &upstream_retries_);
  obs_->Count("resolver_upstream_queries_total", host,
              "Queries sent to upstream servers", &queries_sent_);
  obs_->Count("resolver_stale_answers_total", host,
              "Responses served from expired cache entries (RFC 8767 serve-stale)",
              &stale_responses_);
  // Cause-attributed sub-query counts (the kClient ordinal is skipped: the
  // root client query is by definition not a sub-query).
  for (int i = 1; i < telemetry::kSubQueryCauseCount; ++i) {
    const auto cause = static_cast<telemetry::SubQueryCause>(i);
    obs_->Count("resolver_subqueries_total",
                labeled("cause", telemetry::SubQueryCauseName(cause)),
                "Upstream sub-queries by cause (initial fetch, QMIN descent, "
                "glue-less NS fetch, CNAME chase, retransmission)",
                &subqueries_[i]);
  }
  amplification_hist_ = obs_->Histogram(
      "amplification_factor", host,
      "Upstream queries spent per recursive client request",
      /*min_value=*/1.0, /*growth=*/1.3, /*max_buckets=*/64);
  obs_->Gauge("resolver_pending_requests", host,
              "Client requests currently in resolution (pending-table depth)",
              [this]() { return static_cast<double>(requests_.size()); });
  obs_->Gauge("resolver_outstanding_queries", host,
              "Upstream queries awaiting an answer",
              [this]() { return static_cast<double>(outstanding_.size()); });
  obs_->Gauge("resolver_cache_entries", host,
              "Entries resident in the resolver cache",
              [this]() { return static_cast<double>(cache_.size()); });
  obs_->Gauge("resolver_memory_bytes", host, "RecursiveResolver::MemoryFootprint()",
              [this]() { return static_cast<double>(MemoryFootprint()); });
}

void RecursiveResolver::AddAuthorityHint(const Name& apex, HostAddress server) {
  hints_.emplace_back(apex, server);
}

void RecursiveResolver::SeedCache(const Name& name, RecordType type, RrSet records) {
  cache_.StorePositive(name, type, std::move(records), transport_.now());
}

std::optional<uint16_t> RecursiveResolver::AllocatePort() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const uint16_t port = next_port_++;
    if (next_port_ == 0) {
      next_port_ = 1024;
    }
    if (port >= 1024 && port != kDnsPort && !outstanding_.contains(port)) {
      return port;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Causal tracing / amplification attribution
// ---------------------------------------------------------------------------

uint64_t RecursiveResolver::TraceIdFor(const ClientRequest& request) {
  return telemetry::MakeTraceId(request.client.addr, request.client.port,
                                request.query.header.id);
}

void RecursiveResolver::RecordSubQuerySend(const ClientRequest& request,
                                           const OutstandingQuery& oq) {
  const int cause = static_cast<int>(oq.cause);
  ++subqueries_[cause];
  if (obs_ != nullptr) {
    obs_->Span(TraceIdFor(request), telemetry::SpanKind::kSubQuerySend,
               transport_.now(), transport_.local_address(),
               /*detail=*/cause, oq.span_id, oq.parent_span_id, oq.server);
  }
}

void RecursiveResolver::RecordSubQueryDone(uint64_t request_id,
                                           const OutstandingQuery& oq,
                                           bool answered) {
  if (obs_ == nullptr) {
    return;
  }
  const ClientRequest* request = requests_.find(request_id);
  if (request == nullptr) {
    return;
  }
  obs_->Span(TraceIdFor(*request), telemetry::SpanKind::kSubQueryDone,
             transport_.now(), transport_.local_address(),
             /*detail=*/answered ? 1 : 0, oq.span_id, oq.parent_span_id,
             oq.server);
}

void RecursiveResolver::ObserveAmplification(const ClientRequest& request) {
  if (obs_ != nullptr) {
    obs_->Observe(amplification_hist_, static_cast<double>(request.fetches));
  }
}

bool RecursiveResolver::PassesIngressRrl(HostAddress client, Rcode rcode) {
  if (!config_.ingress_rrl.enabled) {
    return true;
  }
  const Time now = transport_.now();
  auto [it, inserted] = ingress_rrl_state_.try_emplace(
      client, ClientRrl{TokenBucket(config_.ingress_rrl.noerror_qps,
                                    config_.ingress_rrl.burst, now),
                        TokenBucket(config_.ingress_rrl.nxdomain_qps,
                                    config_.ingress_rrl.burst, now),
                        now, 0});
  ClientRrl& state = it->second;
  state.last_active = now;
  if (state.blocked_until > now) {
    return false;
  }
  TokenBucket& bucket = config_.ingress_rrl.per_class && rcode == Rcode::kNxDomain
                            ? state.nxdomain
                            : state.noerror;
  if (bucket.TryConsume(now)) {
    return true;
  }
  if (config_.ingress_rrl.penalty > 0) {
    state.blocked_until = now + config_.ingress_rrl.penalty;
  }
  return false;
}

bool RecursiveResolver::PassesEgressRl(HostAddress server) {
  if (!config_.egress_rl_enabled) {
    return true;
  }
  auto [it, inserted] = egress_rl_state_.try_emplace(
      server, TokenBucket(config_.egress_qps, config_.egress_burst, transport_.now()));
  return it->second.TryConsume(transport_.now());
}

bool RecursiveResolver::CoveredByNsec(const Name& name, Time now) {
  if (!config_.aggressive_nsec || nsec_cache_.empty()) {
    return false;
  }
  auto it = nsec_cache_.upper_bound(name);
  if (it == nsec_cache_.begin()) {
    return false;
  }
  --it;
  const Name& owner = it->first;
  const NsecInterval& interval = it->second;
  if (interval.expiry <= now) {
    nsec_cache_.erase(it);
    return false;
  }
  if (!name.IsSubdomainOf(interval.zone_apex) || !(owner < name)) {
    return false;
  }
  if (owner < interval.next) {
    return name < interval.next;
  }
  // Wrapped interval (next == apex): covers everything after `owner`.
  return true;
}

void RecursiveResolver::StoreNsec(const Message& response, Time now) {
  if (!config_.aggressive_nsec) {
    return;
  }
  Name zone_apex;
  uint32_t ttl = 60;
  for (const auto& rr : response.authority) {
    if (rr.type == RecordType::kSoa) {
      zone_apex = rr.name;
      ttl = std::min(rr.ttl, rr.soa().minimum);
    }
  }
  for (const auto& rr : response.authority) {
    if (rr.type == RecordType::kNsec) {
      nsec_cache_[rr.name] =
          NsecInterval{rr.target(), zone_apex, now + static_cast<Duration>(ttl) * kSecond};
    }
  }
}

void RecursiveResolver::HandleDatagram(Datagram dgram) {
  DCC_PROF_SCOPE("resolver.handle");
  std::optional<Message> msg = dgram.payload.Take<Message>();
  if (!msg.has_value()) {
    return;
  }
  if (msg->IsQuery() && dgram.dst.port == kDnsPort) {
    HandleClientRequest(dgram, std::move(*msg));
  } else if (msg->IsResponse()) {
    HandleUpstreamResponse(dgram, std::move(*msg));
  }
}

// ---------------------------------------------------------------------------
// Client-facing side
// ---------------------------------------------------------------------------

std::optional<Message> RecursiveResolver::AnswerFromCache(const Message& query, Time now) {
  const Question& q = query.Q();
  Name name = q.qname;
  RrSet chain;
  for (int hops = 0; hops <= config_.max_cname_chain; ++hops) {
    if (const CacheEntry* entry = cache_.Lookup(name, q.qtype, now); entry != nullptr) {
      Message response = MakeResponse(query, Rcode::kNoError);
      response.answers = chain;
      switch (entry->kind) {
        case CacheEntryKind::kPositive:
          response.answers.insert(response.answers.end(), entry->records.begin(),
                                  entry->records.end());
          break;
        case CacheEntryKind::kNegativeNxDomain:
          response.header.rcode = Rcode::kNxDomain;
          break;
        case CacheEntryKind::kNegativeNoData:
          break;
      }
      return response;
    }
    if (q.qtype == RecordType::kCname) {
      return std::nullopt;
    }
    if (CoveredByNsec(name, now)) {
      ++nsec_synthesized_;
      Message response = MakeResponse(query, Rcode::kNxDomain);
      response.answers = chain;
      return response;
    }
    const CacheEntry* centry = cache_.Lookup(name, RecordType::kCname, now);
    if (centry == nullptr || centry->kind != CacheEntryKind::kPositive ||
        centry->records.empty()) {
      return std::nullopt;
    }
    chain.push_back(centry->records.front());
    name = centry->records.front().target();
  }
  return std::nullopt;
}

std::optional<Message> RecursiveResolver::StaleAnswer(const Message& query, Time now) {
  if (!config_.serve_stale) {
    return std::nullopt;
  }
  const Question& q = query.Q();
  Name name = q.qname;
  RrSet chain;
  const uint32_t cap = config_.stale_answer_ttl;
  for (int hops = 0; hops <= config_.max_cname_chain; ++hops) {
    if (const CacheEntry* entry = cache_.LookupStale(name, q.qtype, now, config_.max_stale);
        entry != nullptr) {
      Message response = MakeResponse(query, Rcode::kNoError);
      response.answers = chain;
      switch (entry->kind) {
        case CacheEntryKind::kPositive:
          for (ResourceRecord rr : entry->records) {
            rr.ttl = std::min(rr.ttl, cap);
            response.answers.push_back(std::move(rr));
          }
          break;
        case CacheEntryKind::kNegativeNxDomain:
          response.header.rcode = Rcode::kNxDomain;
          break;
        case CacheEntryKind::kNegativeNoData:
          break;
      }
      return response;
    }
    if (q.qtype == RecordType::kCname) {
      return std::nullopt;
    }
    const CacheEntry* centry =
        cache_.LookupStale(name, RecordType::kCname, now, config_.max_stale);
    if (centry == nullptr || centry->kind != CacheEntryKind::kPositive ||
        centry->records.empty()) {
      return std::nullopt;
    }
    ResourceRecord cname = centry->records.front();
    cname.ttl = std::min(cname.ttl, cap);
    name = cname.target();
    chain.push_back(std::move(cname));
  }
  return std::nullopt;
}

bool RecursiveResolver::TryServeStale(ClientRequest& request) {
  auto stale = StaleAnswer(request.query, transport_.now());
  if (!stale.has_value()) {
    return false;
  }
  ++stale_responses_;
  RespondToClient(request, std::move(*stale));
  return true;
}

void RecursiveResolver::HandleClientRequest(const Datagram& dgram, Message query) {
  ++requests_received_;
  if (query.question.empty()) {
    transport_.Send(dgram.dst.port, dgram.src,
                    WireBytes(MakeResponse(query, Rcode::kFormErr)));
    return;
  }
  const Time now = transport_.now();

  if (auto cached = AnswerFromCache(query, now); cached.has_value()) {
    ++cache_hit_responses_;
    if (obs_ != nullptr) {
      obs_->Span(
          telemetry::MakeTraceId(dgram.src.addr, dgram.src.port, query.header.id),
          telemetry::SpanKind::kResolverIngress, now,
          transport_.local_address(), /*detail=*/1);
    }
    ClientRequest fast;
    fast.client = dgram.src;
    fast.local_port = dgram.dst.port;
    fast.query = std::move(query);
    RespondToClient(fast, std::move(*cached));
    return;
  }

  ++cache_misses_;
  if (obs_ != nullptr) {
    obs_->Span(
        telemetry::MakeTraceId(dgram.src.addr, dgram.src.port, query.header.id),
        telemetry::SpanKind::kResolverIngress, now, transport_.local_address(),
        /*detail=*/0);
  }

  auto [request_id, request] = requests_.emplace();
  request.id = request_id;
  request.client = dgram.src;
  request.local_port = dgram.dst.port;
  request.query = std::move(query);

  const Question& q = request.query.Q();
  request.root_task = CreateTask(request_id, /*parent=*/0, /*depth=*/0, q.qname, q.qtype);

  request.deadline = transport_.loop().ScheduleAfter(
      config_.request_deadline, "resolver.deadline", [this, request_id]() {
        // Deadline exceeded: tear down the resolution tree and answer stale
        // if possible, SERVFAIL otherwise.
        ClientRequest& expired = requests_.at(request_id);
        FailChildrenOf(expired.root_task);
        EraseTask(expired.root_task);
        ObserveAmplification(expired);
        if (!TryServeStale(expired)) {
          if (obs_ != nullptr) {
            obs_->Decide(
                {.cause = telemetry::AuditCause::kResolverDeadlineExceeded,
                 .at = transport_.now(),
                 .actor = transport_.local_address(),
                 .client = expired.client.addr,
                 .trace_id = TraceIdFor(expired),
                 .span_id = telemetry::kClientSpanId,
                 .observed = static_cast<double>(config_.request_deadline),
                 .limit = static_cast<double>(config_.request_deadline),
                 .qname = expired.query.Q().qname.ToString()});
          }
          Message response = MakeResponse(expired.query, Rcode::kServFail);
          RespondToClient(expired, std::move(response));
        }
        requests_.erase(request_id);
      });

  RunTask(request.root_task);
}

void RecursiveResolver::RespondToClient(ClientRequest& request, Message response) {
  if (!PassesIngressRrl(request.client.addr, response.header.rcode)) {
    ++ingress_rate_limited_;
    if (obs_ != nullptr) {
      // The per-client bucket ran dry: observed equals the deciding limit.
      const double limit = response.header.rcode == Rcode::kNxDomain &&
                                   config_.ingress_rrl.per_class
                               ? config_.ingress_rrl.nxdomain_qps
                               : config_.ingress_rrl.noerror_qps;
      obs_->Decide({.cause = telemetry::AuditCause::kResolverIngressRrl,
                    .at = transport_.now(),
                    .actor = transport_.local_address(),
                    .client = request.client.addr,
                    .trace_id = TraceIdFor(request),
                    .span_id = telemetry::kClientSpanId,
                    .observed = limit,
                    .limit = limit,
                    .qname = request.query.Q().qname.ToString()});
    }
    switch (config_.ingress_rrl.action) {
      case RateLimitAction::kDrop:
        return;
      case RateLimitAction::kServFail:
        response = MakeResponse(request.query, Rcode::kServFail);
        break;
      case RateLimitAction::kRefused:
        response = MakeResponse(request.query, Rcode::kRefused);
        break;
    }
  }
  response.header.ra = true;
  if (request.query.edns.has_value()) {
    response.EnsureEdns();
  }
  if (obs_ != nullptr) {
    obs_->Span(TraceIdFor(request), telemetry::SpanKind::kResolverResponse,
               transport_.now(), transport_.local_address(),
               static_cast<int32_t>(response.header.rcode));
  }
  const Endpoint client = request.client;
  const uint16_t local_port = request.local_port;
  WireBytes payload(std::move(response));
  if (config_.processing_delay > 0) {
    transport_.loop().ScheduleAfter(
        config_.processing_delay, "resolver.respond",
        [this, local_port, client, payload = std::move(payload)]() mutable {
          transport_.Send(local_port, client, std::move(payload));
        });
  } else {
    transport_.Send(local_port, client, std::move(payload));
  }
  ++responses_sent_;
}

// ---------------------------------------------------------------------------
// Task machinery
// ---------------------------------------------------------------------------

uint64_t RecursiveResolver::CreateTask(uint64_t request_id, uint64_t parent, int depth,
                                       const Name& qname, RecordType qtype) {
  auto [id, t] = tasks_.emplace();
  t.id = id;
  t.request_id = request_id;
  t.parent_task = parent;
  t.depth = depth;
  t.qname = qname;
  t.qtype = qtype;
  return id;
}

void RecursiveResolver::ResetQminProgress(Task& task) {
  size_t minimum = task.qname.LabelCount();
  if (config_.qname_minimization) {
    minimum = std::min(task.qname.LabelCount(), task.zone_cut.LabelCount() + 1);
  }
  task.qmin_labels = std::max(task.qmin_labels, minimum);
  task.qmin_labels = std::min(task.qmin_labels, task.qname.LabelCount());
}

void RecursiveResolver::RankTaskServers(Task& task) {
  if (config_.adaptive_retry && task.servers.size() > 1) {
    tracker_.Rank(task.servers, transport_.now());
  }
}

Duration RecursiveResolver::AttemptTimeout(HostAddress server, int attempt) {
  if (!config_.adaptive_retry) {
    return config_.upstream_timeout;
  }
  double timeout =
      static_cast<double>(tracker_.RetransmitTimeout(server, config_.upstream_timeout));
  for (int i = 0; i < attempt; ++i) {
    timeout *= config_.retry_backoff_factor;
  }
  timeout = std::min(timeout, static_cast<double>(config_.retry_backoff_max));
  if (config_.retry_jitter > 0.0) {
    timeout *= 1.0 + (2.0 * rng_.NextDouble() - 1.0) * config_.retry_jitter;
  }
  return std::max<Duration>(static_cast<Duration>(timeout), kMillisecond);
}

bool RecursiveResolver::EstablishZoneCut(Task& task) {
  const Time now = transport_.now();
  for (size_t labels = task.qname.LabelCount();; --labels) {
    const Name cut = task.qname.Suffix(labels);
    // Cached NS RRset (learned from referrals or authoritative answers).
    if (const CacheEntry* entry = cache_.Lookup(cut, RecordType::kNs, now);
        entry != nullptr && entry->kind == CacheEntryKind::kPositive &&
        !entry->records.empty()) {
      // Copy the NS RRset: the address lookups below may erase expired cache
      // entries, which invalidates `entry` (FlatMap shifts slots on erase).
      const RrSet ns_records = entry->records;
      std::vector<HostAddress> servers;
      std::vector<Name> unresolved;
      for (const auto& ns : ns_records) {
        const CacheEntry* addr = cache_.Lookup(ns.target(), RecordType::kA, now);
        if (addr != nullptr && addr->kind == CacheEntryKind::kPositive &&
            !addr->records.empty()) {
          for (const auto& rr : addr->records) {
            servers.push_back(rr.address());
          }
        } else if (!ns.target().IsSubdomainOf(cut)) {
          // Glue-less out-of-bailiwick nameserver: needs its own resolution.
          unresolved.push_back(ns.target());
        }
      }
      if (!servers.empty() || !unresolved.empty()) {
        task.zone_cut = cut;
        task.servers = std::move(servers);
        task.unresolved_ns = std::move(unresolved);
        task.server_index = 0;
        RankTaskServers(task);
        ResetQminProgress(task);
        return true;
      }
    }
    // Configured authority hints.
    std::vector<HostAddress> hinted;
    for (const auto& [apex, server] : hints_) {
      if (apex == cut) {
        hinted.push_back(server);
      }
    }
    if (!hinted.empty()) {
      task.zone_cut = cut;
      task.servers = std::move(hinted);
      task.unresolved_ns.clear();
      task.server_index = 0;
      RankTaskServers(task);
      ResetQminProgress(task);
      return true;
    }
    if (labels == 0) {
      break;
    }
  }
  return false;
}

void RecursiveResolver::RunTask(uint64_t task_id) {
  Task* task = tasks_.find(task_id);
  if (task == nullptr) {
    return;
  }
  Task& t = *task;
  const Time now = transport_.now();

  // Serve from cache, following cached CNAMEs.
  while (true) {
    if (const CacheEntry* entry = cache_.Lookup(t.qname, t.qtype, now);
        entry != nullptr) {
      switch (entry->kind) {
        case CacheEntryKind::kPositive:
          CompleteTask(task_id, TaskStatus::kAnswer, entry->records);
          return;
        case CacheEntryKind::kNegativeNxDomain:
          CompleteTask(task_id, TaskStatus::kNxDomain, {});
          return;
        case CacheEntryKind::kNegativeNoData:
          CompleteTask(task_id, TaskStatus::kNoData, {});
          return;
      }
    }
    if (CoveredByNsec(t.qname, now)) {
      ++nsec_synthesized_;
      CompleteTask(task_id, TaskStatus::kNxDomain, {});
      return;
    }
    if (t.qtype == RecordType::kCname) {
      break;
    }
    const CacheEntry* centry = cache_.Lookup(t.qname, RecordType::kCname, now);
    if (centry == nullptr || centry->kind != CacheEntryKind::kPositive ||
        centry->records.empty()) {
      break;
    }
    if (++t.cname_count > config_.max_cname_chain) {
      CompleteTask(task_id, TaskStatus::kFail, {});
      return;
    }
    t.cname_chain.push_back(centry->records.front());
    t.qname = centry->records.front().target();
    t.servers.clear();
    t.unresolved_ns.clear();
    t.server_index = 0;
    t.zone_cut = Name();
    t.qmin_labels = 0;
  }

  if (t.servers.empty() && t.unresolved_ns.empty()) {
    if (!EstablishZoneCut(t)) {
      CompleteTask(task_id, TaskStatus::kFail, {});
      return;
    }
  }
  if (t.servers.empty()) {
    SpawnNsChildren(task_id);
    return;
  }
  SendQuery(task_id);
}

void RecursiveResolver::SpawnNsChildren(uint64_t task_id) {
  Task& t = tasks_.at(task_id);
  if (t.depth + 1 > config_.max_depth || t.unresolved_ns.empty()) {
    CompleteTask(task_id, TaskStatus::kFail, {});
    return;
  }
  // Fetch addresses for up to max_ns_address_fetches nameserver names. This
  // child fan-out is precisely where FF amplification arises.
  std::vector<Name> batch;
  const int limit = config_.max_ns_address_fetches;
  while (!t.unresolved_ns.empty() && static_cast<int>(batch.size()) < limit) {
    batch.push_back(t.unresolved_ns.back());
    t.unresolved_ns.pop_back();
  }
  t.servers.clear();
  t.server_index = 0;
  t.waiting_children = true;
  // Children are caused by the query that produced the glue-less referral
  // (the task's latest span), so the FF fan-out shows up as siblings under
  // one node of the span tree.
  const uint32_t cause_span = t.last_span != 0 ? t.last_span : t.origin_span;
  const uint64_t request_id = t.request_id;
  const int child_depth = t.depth + 1;
  std::vector<uint64_t> child_ids;
  child_ids.reserve(batch.size());
  // Each CreateTask inserts into tasks_ and may invalidate references into
  // it, so the parent is re-fetched after the batch is created.
  for (const auto& ns_name : batch) {
    const uint64_t child =
        CreateTask(request_id, task_id, child_depth, ns_name, RecordType::kA);
    tasks_.at(child).origin_span = cause_span;
    child_ids.push_back(child);
  }
  Task& parent = tasks_.at(task_id);
  for (uint64_t child : child_ids) {
    parent.children.push_back(child);
    ++parent.pending_children;
  }
  for (uint64_t child : child_ids) {
    RunTask(child);
    // The parent may have been completed (and erased) by a child cascade.
    if (!tasks_.contains(task_id)) {
      return;
    }
  }
}

void RecursiveResolver::SendQuery(uint64_t task_id) {
  Task& t = tasks_.at(task_id);
  ClientRequest* live_request = requests_.find(t.request_id);
  if (live_request == nullptr) {
    EraseTask(task_id);
    return;
  }
  ClientRequest& request = *live_request;

  // Fast-forward the QMIN walk through levels whose NS existence is already
  // cached, so repeated lookups under one subtree cost one query, not one
  // per label.
  while (config_.qname_minimization && t.qmin_labels > 0 &&
         t.qmin_labels < t.qname.LabelCount()) {
    const Name sname = t.qname.Suffix(t.qmin_labels);
    const CacheEntry* entry = cache_.Lookup(sname, RecordType::kNs, transport_.now());
    if (entry == nullptr) {
      break;
    }
    if (entry->kind == CacheEntryKind::kNegativeNxDomain) {
      // A nonexistent intermediate name implies the full name cannot exist.
      CompleteTask(task_id, TaskStatus::kNxDomain, {});
      return;
    }
    if (entry->kind == CacheEntryKind::kPositive) {
      t.zone_cut = sname;
    }
    ++t.qmin_labels;
  }
  if (++request.fetches > config_.max_fetches_per_request) {
    CompleteTask(task_id, TaskStatus::kFail, {});
    return;
  }

  const Time now = transport_.now();
  size_t chosen = t.server_index % t.servers.size();
  if (config_.adaptive_retry) {
    // Prefer the first candidate at or after server_index that is not held
    // down. When every remaining candidate is held down: with serve-stale we
    // fail fast instead of hammering a dead server set (the client gets a
    // stale answer, and the hold-down expiry doubles as the re-probe
    // schedule); without it we fall through and use the scheduled candidate
    // as a last resort.
    bool found_live = false;
    for (size_t k = chosen; k < t.servers.size(); ++k) {
      if (!tracker_.IsHeldDown(t.servers[k], now)) {
        chosen = k;
        found_live = true;
        break;
      }
    }
    if (found_live) {
      t.server_index = chosen;
    } else if (config_.serve_stale && t.unresolved_ns.empty()) {
      CompleteTask(task_id, TaskStatus::kFail, {});
      return;
    }
  }
  const HostAddress server = t.servers[chosen];
  const Name sname = t.qname.Suffix(t.qmin_labels == 0 ? t.qname.LabelCount()
                                                       : t.qmin_labels);
  const RecordType stype =
      sname.LabelCount() == t.qname.LabelCount() ? t.qtype : RecordType::kNs;

  assert(!OwnsLiveQuery(t.query_port, task_id));
  const std::optional<uint16_t> free_port = AllocatePort();
  if (!free_port.has_value()) {
    // No port to ask from: the sub-query fails as if no server answered.
    CompleteTask(task_id, TaskStatus::kFail, {});
    return;
  }
  const uint16_t port = *free_port;
  t.query_port = port;
  const uint16_t qid = static_cast<uint16_t>(rng_.Next());
  OutstandingQuery& oq = outstanding_[port];
  oq.task_id = task_id;
  oq.id = qid;
  oq.server = server;
  oq.qname = sname;
  oq.qtype = stype;
  oq.retries_left = config_.upstream_retries;
  oq.sent_at = now;
  oq.attempt = 0;

  // Open a causal span for this sub-query: classify why it exists and link
  // it to the span that caused it. Successive queries of one task chain off
  // each other, so QMIN descents and CNAME chases form paths while NS-child
  // fan-out forms subtrees.
  if (sname.LabelCount() != t.qname.LabelCount()) {
    oq.cause = telemetry::SubQueryCause::kQmin;
  } else if (t.depth > 0) {
    oq.cause = telemetry::SubQueryCause::kNs;
  } else if (t.cname_count > 0) {
    oq.cause = telemetry::SubQueryCause::kCname;
  } else {
    oq.cause = telemetry::SubQueryCause::kInitial;
  }
  oq.span_id = next_span_id_++;
  oq.parent_span_id = t.last_span != 0 ? t.last_span : t.origin_span;
  t.last_span = oq.span_id;
  RecordSubQuerySend(request, oq);

  if (PassesEgressRl(server)) {
    oq.sent = true;
    SendSubQuery(port, oq, &request);
    ++queries_sent_;
  } else {
    // Dropped by our own egress rate limit; the timeout path handles it.
    // sent stays false so the drop is not misread as a server timeout.
    ++egress_rate_limited_;
    if (obs_ != nullptr) {
      // The per-server bucket ran dry.
      obs_->Decide({.cause = telemetry::AuditCause::kResolverEgressRl,
                    .at = now,
                    .actor = transport_.local_address(),
                    .client = request.client.addr,
                    .channel = server,
                    .trace_id = TraceIdFor(request),
                    .span_id = oq.span_id,
                    .parent_span_id = oq.parent_span_id,
                    .observed = config_.egress_qps,
                    .limit = config_.egress_qps,
                    .qname = sname.ToString()});
    }
  }

  oq.timer = transport_.loop().ScheduleAfter(
      AttemptTimeout(server, /*attempt=*/0), "resolver.timeout",
      [this, port]() { OnQueryTimeout(port); });
}

void RecursiveResolver::SendSubQuery(uint16_t port, OutstandingQuery& oq,
                                     const ClientRequest* request) {
  if (!oq.payload.empty()) {
    // Without attribution every attempt is the same message: resend it.
    // Its receivers only read it, so sharing costs no copy.
    prof::CountEncodeCacheHit();
    transport_.Send(port, Endpoint{oq.server, kDnsPort}, oq.payload);
    return;
  }
  Message query = MakeQuery(oq.id, oq.qname, oq.qtype, /*rd=*/false);
  query.EnsureEdns();
  if (config_.attach_attribution && request != nullptr) {
    SetOption(query, EncodeAttribution(Attribution{request->client.addr,
                                                   request->client.port,
                                                   request->query.header.id,
                                                   oq.span_id,
                                                   oq.parent_span_id}));
  }
  WireBytes payload(std::move(query));
  if (!config_.attach_attribution) {
    oq.payload = payload;
  }
  transport_.Send(port, Endpoint{oq.server, kDnsPort}, std::move(payload));
}

void RecursiveResolver::OnQueryTimeout(uint16_t port) {
  OutstandingQuery& oq = outstanding_.at(port);
  Task* task = tasks_.find(oq.task_id);
  if (task == nullptr) {
    outstanding_.erase(port);
    return;
  }
  const Time now = transport_.now();
  if (oq.sent) {
    // Egress-RL drops never reached the server, so they don't count against
    // its health.
    tracker_.OnTimeout(oq.server, now);
  }
  bool skip_retries = false;
  if (config_.adaptive_retry && oq.retries_left > 0 &&
      tracker_.IsHeldDown(oq.server, now)) {
    // The server just entered (or is in) hold-down: spending the remaining
    // retransmissions on it is pointless if the task knows a live
    // alternative — fail over immediately instead.
    const Task& t = *task;
    for (size_t k = t.server_index + 1; k < t.servers.size(); ++k) {
      if (!tracker_.IsHeldDown(t.servers[k], now)) {
        skip_retries = true;
        break;
      }
    }
  }
  if (oq.retries_left > 0 && !skip_retries) {
    --oq.retries_left;
    ++oq.attempt;
    oq.sent_at = now;
    oq.sent = false;
    ++upstream_retries_;
    // The retransmission opens a fresh span caused by the timed-out attempt,
    // so retry storms are visible as chains in the span tree.
    oq.parent_span_id = oq.span_id;
    oq.span_id = next_span_id_++;
    oq.cause = telemetry::SubQueryCause::kRetry;
    task->last_span = oq.span_id;
    const ClientRequest* request = requests_.find(task->request_id);
    if (request != nullptr) {
      RecordSubQuerySend(*request, oq);
    }
    if (PassesEgressRl(oq.server)) {
      oq.sent = true;
      SendSubQuery(port, oq, request);
      ++queries_sent_;
    } else {
      ++egress_rate_limited_;
    }
    oq.timer = transport_.loop().ScheduleAfter(
        AttemptTimeout(oq.server, oq.attempt), "resolver.timeout",
        [this, port]() { OnQueryTimeout(port); });
    return;
  }
  const uint64_t task_id = oq.task_id;
  RecordSubQueryDone(task->request_id, oq, /*answered=*/false);
  outstanding_.erase(port);
  TryNextServer(task_id);
}

void RecursiveResolver::TryNextServer(uint64_t task_id) {
  Task* task = tasks_.find(task_id);
  if (task == nullptr) {
    return;
  }
  Task& t = *task;
  ++t.server_index;
  if (t.server_index < t.servers.size()) {
    SendQuery(task_id);
    return;
  }
  if (!t.unresolved_ns.empty()) {
    SpawnNsChildren(task_id);
    return;
  }
  CompleteTask(task_id, TaskStatus::kFail, {});
}

// ---------------------------------------------------------------------------
// Server-facing side
// ---------------------------------------------------------------------------

void RecursiveResolver::HandleUpstreamResponse(const Datagram& dgram, Message response) {
  auto it = outstanding_.find(dgram.dst.port);
  if (it == outstanding_.end()) {
    return;
  }
  // Anti-spoofing validation: id, server address and question must match.
  if (const OutstandingQuery& sent = it->second;
      response.header.id != sent.id || dgram.src.addr != sent.server ||
      response.question.empty() || !(response.Q().qname == sent.qname) ||
      response.Q().qtype != sent.qtype) {
    return;
  }
  const OutstandingQuery oq = std::move(it->second);
  outstanding_.erase(dgram.dst.port);
  transport_.loop().Cancel(oq.timer);

  // Health sample for the answering server. For retransmitted queries the
  // RTT is measured from the latest transmission, which may undershoot when
  // the answer belongs to an earlier attempt — an accepted simplification of
  // Karn's algorithm (the sample is still a lower bound).
  if (oq.sent) {
    tracker_.OnResponse(oq.server, transport_.now() - oq.sent_at, transport_.now());
  }

  Task* task = tasks_.find(oq.task_id);
  if (task == nullptr) {
    return;
  }
  const uint64_t task_id = oq.task_id;
  Task& t = *task;
  const Time now = transport_.now();
  const Rcode rcode = response.header.rcode;
  RecordSubQueryDone(t.request_id, oq, /*answered=*/true);

  if (rcode == Rcode::kNxDomain) {
    cache_.StoreNegative(oq.qname, oq.qtype, CacheEntryKind::kNegativeNxDomain,
                         NegativeTtlFrom(response), now);
    StoreNsec(response, now);
    // A nonexistent intermediate name implies the full name cannot exist.
    CompleteTask(task_id, TaskStatus::kNxDomain, {});
    return;
  }
  if (rcode != Rcode::kNoError) {
    TryNextServer(task_id);
    return;
  }

  const bool is_full_query = oq.qname == t.qname && oq.qtype == t.qtype;

  // Positive answer for exactly what we asked.
  if (RrSet matching = OwnedRecords(response.answers, oq.qname, oq.qtype);
      !matching.empty()) {
    cache_.StorePositive(oq.qname, oq.qtype, matching, now);
    if (is_full_query) {
      CompleteTask(task_id, TaskStatus::kAnswer, matching);
      return;
    }
    if (oq.qtype == RecordType::kNs) {
      // Authoritative NS answer for a QMIN-intermediate name: record the
      // (deeper) zone cut and keep walking down.
      t.zone_cut = oq.qname;
      ++t.qmin_labels;
      SendQuery(task_id);
      return;
    }
    TryNextServer(task_id);
    return;
  }

  // CNAME indirection on the final name.
  if (RrSet cnames = OwnedRecords(response.answers, oq.qname, RecordType::kCname);
      !cnames.empty() && oq.qtype != RecordType::kCname) {
    cache_.StorePositive(oq.qname, RecordType::kCname, {cnames.front()}, now);
    if (!is_full_query) {
      // A CNAME at an intermediate QMIN name: the full name is below a
      // CNAME, which cannot have descendants -> resolution fails.
      CompleteTask(task_id, TaskStatus::kFail, {});
      return;
    }
    if (++t.cname_count > config_.max_cname_chain) {
      CompleteTask(task_id, TaskStatus::kFail, {});
      return;
    }
    t.cname_chain.push_back(cnames.front());
    t.qname = cnames.front().target();
    t.servers.clear();
    t.unresolved_ns.clear();
    t.server_index = 0;
    t.zone_cut = Name();
    t.qmin_labels = 0;
    RunTask(task_id);
    return;
  }

  // Referral: authority section carries an NS RRset for a deeper cut.
  RrSet delegation;
  Name cut_owner;
  for (const auto& rr : response.authority) {
    if (rr.type == RecordType::kNs && oq.qname.IsSubdomainOf(rr.name) &&
        rr.name.LabelCount() > t.zone_cut.LabelCount()) {
      if (delegation.empty()) {
        cut_owner = rr.name;
      }
      if (rr.name == cut_owner) {
        delegation.push_back(rr);
      }
    }
  }
  if (!delegation.empty()) {
    cache_.StorePositive(cut_owner, RecordType::kNs, delegation, now);
    // Cache glue addresses.
    for (const auto& ns : delegation) {
      RrSet glue = OwnedRecords(response.additional, ns.target(), RecordType::kA);
      if (!glue.empty()) {
        cache_.StorePositive(ns.target(), RecordType::kA, glue, now);
      }
    }
    t.zone_cut = cut_owner;
    t.servers.clear();
    t.unresolved_ns.clear();
    t.server_index = 0;
    for (const auto& ns : delegation) {
      const CacheEntry* addr = cache_.Lookup(ns.target(), RecordType::kA, now);
      if (addr != nullptr && addr->kind == CacheEntryKind::kPositive &&
          !addr->records.empty()) {
        for (const auto& rr : addr->records) {
          t.servers.push_back(rr.address());
        }
      } else if (!ns.target().IsSubdomainOf(cut_owner)) {
        t.unresolved_ns.push_back(ns.target());
      }
    }
    RankTaskServers(t);
    ResetQminProgress(t);
    if (!t.servers.empty()) {
      SendQuery(task_id);
    } else if (!t.unresolved_ns.empty()) {
      SpawnNsChildren(task_id);
    } else {
      CompleteTask(task_id, TaskStatus::kFail, {});
    }
    return;
  }

  // NODATA.
  if (!is_full_query) {
    // QMIN intermediate NODATA: the name exists (empty non-terminal or no NS
    // RRset); advance one label.
    cache_.StoreNegative(oq.qname, oq.qtype, CacheEntryKind::kNegativeNoData,
                         NegativeTtlFrom(response), now);
    ++t.qmin_labels;
    SendQuery(task_id);
    return;
  }
  cache_.StoreNegative(oq.qname, oq.qtype, CacheEntryKind::kNegativeNoData,
                       NegativeTtlFrom(response), now);
  CompleteTask(task_id, TaskStatus::kNoData, {});
}

// ---------------------------------------------------------------------------
// Completion and teardown
// ---------------------------------------------------------------------------

// Teardown cost is proportional to the torn-down subtree: instead of
// sweeping all of outstanding_ for queries whose task is gone, erased tasks
// list their in-flight query and the sweep visits only that list. The list
// also holds queries orphaned earlier by paths that do not sweep (a deadline
// erasing its root task), so exactly the queries the full sweep would find
// are erased, at the same moments.
void RecursiveResolver::FailChildrenOf(uint64_t task_id) {
  if (!tasks_.contains(task_id)) {
    return;
  }
  EraseDescendants(task_id);
  SweepOrphans();
}

void RecursiveResolver::EraseDescendants(uint64_t task_id) {
  Task* task = tasks_.find(task_id);
  if (task == nullptr) {
    return;
  }
  // Every caller erases `task_id` next, so its child list can be taken.
  const std::vector<uint64_t> children = std::move(task->children);
  for (uint64_t child : children) {
    EraseDescendants(child);
    EraseTask(child);
  }
}

bool RecursiveResolver::OwnsLiveQuery(uint16_t port, uint64_t task_id) const {
  auto it = outstanding_.find(port);
  return it != outstanding_.end() && it->second.task_id == task_id;
}

void RecursiveResolver::EraseTask(uint64_t task_id) {
  const Task* task = tasks_.find(task_id);
  if (task == nullptr) {
    return;
  }
  // The list stays short: every teardown empties it, and between teardowns
  // only a request deadline adds to it (its root task's query), right after
  // its own teardown.
  if (OwnsLiveQuery(task->query_port, task_id)) {
    orphans_.emplace_back(task->query_port, task_id);
  }
  tasks_.erase(task_id);
}

void RecursiveResolver::SweepOrphans() {
  for (const auto& [port, task_id] : orphans_) {
    if (OwnsLiveQuery(port, task_id)) {
      transport_.loop().Cancel(outstanding_.at(port).timer);
      outstanding_.erase(port);
    }
  }
  orphans_.clear();
}

void RecursiveResolver::CompleteTask(uint64_t task_id, TaskStatus status,
                                     const RrSet& records) {
  Task* live = tasks_.find(task_id);
  if (live == nullptr) {
    return;
  }
  if (!live->children.empty()) {
    FailChildrenOf(task_id);  // Erases other entries only: `live` stays put.
  }
  Task task = std::move(*live);
  EraseTask(task_id);

  if (task.parent_task != 0) {
    Task* parent_task = tasks_.find(task.parent_task);
    if (parent_task == nullptr) {
      return;
    }
    Task& parent = *parent_task;
    --parent.pending_children;
    if (status == TaskStatus::kAnswer) {
      for (const auto& rr : records) {
        if (rr.type == RecordType::kA) {
          parent.servers.push_back(rr.address());
        }
      }
    }
    if (!parent.waiting_children) {
      return;
    }
    if (!parent.servers.empty()) {
      parent.waiting_children = false;
      RankTaskServers(parent);
      SendQuery(task.parent_task);
    } else if (parent.pending_children == 0) {
      if (!parent.unresolved_ns.empty()) {
        SpawnNsChildren(task.parent_task);
      } else {
        CompleteTask(task.parent_task, TaskStatus::kFail, {});
      }
    }
    return;
  }

  // Root task: answer the client.
  ClientRequest* live_request = requests_.find(task.request_id);
  if (live_request == nullptr) {
    return;
  }
  ClientRequest& request = *live_request;
  transport_.loop().Cancel(request.deadline);
  ObserveAmplification(request);
  Message response = MakeResponse(request.query, Rcode::kNoError);
  switch (status) {
    case TaskStatus::kAnswer:
      response.answers = task.cname_chain;
      response.answers.insert(response.answers.end(), records.begin(), records.end());
      break;
    case TaskStatus::kNoData:
      response.answers = task.cname_chain;
      break;
    case TaskStatus::kNxDomain:
      response.header.rcode = Rcode::kNxDomain;
      response.answers = task.cname_chain;
      break;
    case TaskStatus::kFail:
      // Total resolution failure: RFC 8767 serve-stale before SERVFAIL.
      if (TryServeStale(request)) {
        requests_.erase(task.request_id);
        return;
      }
      response = MakeResponse(request.query, Rcode::kServFail);
      break;
  }
  RespondToClient(request, std::move(response));
  requests_.erase(task.request_id);
}

// ---------------------------------------------------------------------------
// Maintenance / introspection
// ---------------------------------------------------------------------------

void RecursiveResolver::CrashReset() {
  EventLoop& loop = transport_.loop();
  requests_.ForEach([&loop](const ClientRequest& request) { loop.Cancel(request.deadline); });
  for (const auto& [port, oq] : outstanding_) {
    loop.Cancel(oq.timer);
  }
  requests_.clear();
  tasks_.clear();
  outstanding_.clear();
  orphans_.clear();
  cache_ = DnsCache(config_.cache_max_entries, config_.serve_stale ? config_.max_stale : 0);
  nsec_cache_.clear();
  ingress_rrl_state_.clear();
  egress_rl_state_.clear();
  // Statistics counters survive (they model external observation).
}

size_t RecursiveResolver::MemoryFootprint() const {
  size_t bytes = cache_.MemoryFootprint() + tracker_.MemoryFootprint();
  bytes += requests_.size() * kRequestBytes;
  bytes += tasks_.size() * kTaskBytes;
  bytes += outstanding_.size() * kOutstandingBytes;
  bytes += ingress_rrl_state_.size() * kIngressRrlBytes;
  bytes += egress_rl_state_.size() * kEgressRlBytes;
  for (const auto& [owner, interval] : nsec_cache_) {
    bytes += kNsecIntervalBytes + owner.HeapBytes() + interval.next.HeapBytes() +
             interval.zone_apex.HeapBytes();
  }
  return bytes;
}

void RecursiveResolver::Purge() {
  const Time now = transport_.now();
  cache_.PurgeExpired(now);
  tracker_.Purge(now, kMinute);
  for (auto it = nsec_cache_.begin(); it != nsec_cache_.end();) {
    if (it->second.expiry <= now) {
      it = nsec_cache_.erase(it);
    } else {
      ++it;
    }
  }
  ingress_rrl_state_.EraseIf([now](HostAddress, const ClientRrl& state) {
    return state.last_active + Seconds(10) < now;
  });
}

}  // namespace dcc
