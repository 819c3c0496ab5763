#include "check/rma_checker.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "runtime/team.hpp"
#include "trace/journal.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace srumma::check {

const char* diag_name(Diag d) {
  switch (d) {
    case Diag::UseBeforeWait: return "use-before-wait";
    case Diag::UnwaitedAtBarrier: return "unwaited-at-barrier";
    case Diag::EpochConflict: return "epoch-conflict";
    case Diag::NonDomainDirect: return "non-domain-direct";
    case Diag::PendingAtFree: return "pending-at-free";
    case Diag::OutOfBounds: return "out-of-bounds";
    case Diag::DoubleWait: return "double-wait";
  }
  return "unknown";
}

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::Get: return "get";
    case OpKind::Put: return "put";
    case OpKind::Acc: return "acc";
    case OpKind::DirectRead: return "direct-read";
    case OpKind::ComputeRead: return "compute-read";
    case OpKind::LocalWrite: return "local-write";
  }
  return "unknown";
}

bool footprints_overlap(const Footprint& a, const Footprint& b) {
  if (a.empty() || b.empty()) return false;
  // Cheap reject on the covering spans first.
  if (a.span_end() <= b.lo || b.span_end() <= a.lo) return false;
  // Exact: intersect each column of `a` with the columns of `b` it can
  // reach.  Column i of a covers [a.lo + i*a.ld, +a.rows).
  for (std::uint64_t i = 0; i < a.cols; ++i) {
    const std::uint64_t alo = a.lo + i * a.ld;
    const std::uint64_t ahi = alo + a.rows;
    if (ahi <= b.lo) continue;
    // Columns of b whose start could precede ahi.
    const std::uint64_t jhi =
        b.ld == 0 ? 1 : std::min(b.cols, (ahi - b.lo + b.ld - 1) / b.ld);
    // First column of b whose end could exceed alo.
    std::uint64_t jlo = 0;
    if (b.ld != 0 && alo > b.lo + b.rows)
      jlo = std::min(jhi, (alo - b.lo - b.rows) / b.ld);
    for (std::uint64_t j = jlo; j < jhi; ++j) {
      const std::uint64_t blo = b.lo + j * b.ld;
      if (blo < ahi && alo < blo + b.rows) return true;
    }
  }
  return false;
}

namespace {

[[nodiscard]] bool is_write(OpKind k) {
  return k == OpKind::Put || k == OpKind::Acc || k == OpKind::LocalWrite;
}

/// Epoch-conflict rule: reads never conflict, acc/acc is atomic, and ops
/// from one origin ordered by a completed wait() are sequenced.
[[nodiscard]] bool conflicts(const RmaChecker* /*self*/, OpKind prior_kind,
                             int prior_rank, bool prior_completed,
                             OpKind next_kind, int next_rank) {
  if (!is_write(prior_kind) && !is_write(next_kind)) return false;
  if (prior_kind == OpKind::Acc && next_kind == OpKind::Acc) return false;
  if (prior_rank == next_rank && prior_completed) return false;
  return true;
}

[[nodiscard]] std::string site_str(std::source_location site) {
  std::ostringstream os;
  const char* file = site.file_name();
  if (const char* slash = std::strrchr(file, '/')) file = slash + 1;
  os << file << ':' << site.line();
  if (site.function_name() != nullptr && *site.function_name() != '\0')
    os << " (" << site.function_name() << ")";
  return os.str();
}

}  // namespace

bool RmaChecker::env_enabled() {
#ifdef SRUMMA_RMA_CHECK_DEFAULT
  return env_flag("SRUMMA_RMA_CHECK", true);
#else
  return env_flag("SRUMMA_RMA_CHECK");
#endif
}

RmaChecker::RmaChecker(Team& team, bool throw_on_diagnostic)
    : team_(team),
      throw_on_diagnostic_(throw_on_diagnostic),
      epoch_(static_cast<std::size_t>(team.size()), 0),
      completed_handles_(static_cast<std::size_t>(team.size())) {
  const std::string journal_path = trace::journal_env_path();
  if (!journal_path.empty())
    journal_ = std::make_unique<trace::JournalWriter>(journal_path);
  observer_id_ = team_.add_epoch_observer([this](int r) { on_barrier(r); });
}

RmaChecker::~RmaChecker() { team_.remove_epoch_observer(observer_id_); }

void RmaChecker::journal_op(const OpRecord& op) {
  if (!journal_) return;
  trace::JournalRecord r;
  r.ev = "op";
  r.rank = op.rank;
  r.kind = op_name(op.kind);
  r.owner = op.owner;
  r.seq = op.seq;
  r.handle = op.completed ? 0 : op.handle;  // 0 = completed synchronously
  r.epoch = op.epoch;
  r.rlo = op.remote.lo;
  r.rrows = op.remote.rows;
  r.rcols = op.remote.cols;
  r.rld = op.remote.ld;
  r.llo = op.local.lo;
  r.lrows = op.local.rows;
  r.lcols = op.local.cols;
  r.lld = op.local.ld;
  r.site = site_str(op.site);
  journal_->record(r);
}

void RmaChecker::journal_event(const char* ev, int rank, std::uint64_t seq,
                               std::uint64_t handle) {
  if (!journal_) return;
  trace::JournalRecord r;
  r.ev = ev;
  r.rank = rank;
  r.seq = seq;
  r.handle = handle;
  r.epoch = epoch_[static_cast<std::size_t>(rank)];
  journal_->record(r);
}

void RmaChecker::emit(Diag d, int rank, std::uint64_t seq, int owner,
                      const Footprint& fp, std::uint64_t epoch,
                      std::uint64_t handle, std::source_location site,
                      const std::string& detail) {
  CheckReport r;
  r.diag = d;
  r.rank = rank;
  r.region_seq = seq;
  r.owner = owner;
  r.lo = fp.lo;
  r.hi = fp.span_end();
  r.epoch = epoch;
  r.handle = handle;
  r.site = site_str(site);

  std::ostringstream os;
  os << "[rma-check] " << diag_name(d) << ": rank " << rank;
  if (seq != kNoRegion) {
    os << ", region seq " << seq;
    if (owner >= 0) os << " (owner " << owner << ")";
    os << ", bytes [" << r.lo << ", " << r.hi << ")";
  }
  os << ", epoch " << epoch;
  if (handle != 0) os << ", handle " << handle;
  os << ", at " << r.site << ": " << detail;
  r.message = os.str();
  reports_.push_back(r);
  if (journal_) {
    trace::JournalRecord jr;
    jr.ev = "diag";
    jr.kind = diag_name(d);
    jr.rank = rank;
    jr.owner = owner;
    jr.seq = seq;
    jr.handle = handle;
    jr.epoch = epoch;
    // The report interval [lo, hi) as a degenerate one-column footprint.
    jr.rlo = r.lo;
    jr.rrows = r.hi - r.lo;
    jr.rcols = r.hi > r.lo ? 1 : 0;
    jr.rld = r.hi - r.lo;
    jr.site = r.site;
    journal_->record(jr);
  }
  if (throw_on_diagnostic_) throw Error(r.message);
}

const RmaChecker::Segment* RmaChecker::find_segment(std::uint64_t addr) const {
  if (segs_by_base_.empty() || addr == 0) return nullptr;
  auto it = segs_by_base_.upper_bound(addr);
  if (it == segs_by_base_.begin()) return nullptr;
  --it;
  const Segment& s = it->second;
  return addr < s.base + s.len ? &s : nullptr;
}

const RmaChecker::Segment* RmaChecker::find_segment_by_id(std::uint64_t seq,
                                                          int owner) const {
  auto it = segs_by_id_.find({seq, owner});
  return it == segs_by_id_.end() ? nullptr : &it->second;
}

void RmaChecker::on_malloc(int rank, std::uint64_t seq, const double* base,
                           std::size_t elems) {
  std::lock_guard<std::mutex> lock(mu_);
  Segment s;
  s.seq = seq;
  s.owner = rank;
  s.base = reinterpret_cast<std::uint64_t>(base);
  s.len = elems * sizeof(double);
  segs_by_id_[{seq, rank}] = s;
  if (s.base != 0 && s.len != 0) segs_by_base_[s.base] = s;
  if (journal_) {
    trace::JournalRecord r;
    r.ev = "alloc";
    r.rank = rank;
    r.owner = rank;
    r.seq = seq;
    r.epoch = epoch_[static_cast<std::size_t>(rank)];
    r.rrows = s.len;  // segment bytes
    r.rcols = s.len != 0 ? 1 : 0;
    r.rld = s.len;
    journal_->record(r);
  }
}

void RmaChecker::on_free(int rank, std::uint64_t seq,
                         std::source_location site) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_event("free", rank, seq, 0);
  // The freeing rank must have completed every transfer it issued against
  // the region; flag and retire stragglers so the barrier inside
  // free_symmetric does not re-report them.
  for (OpRecord& op : ops_) {
    if (op.rank != rank || op.completed || op.handle == 0 || op.seq != seq)
      continue;
    op.completed = true;
    emit(Diag::PendingAtFree, rank, seq, op.owner, op.remote,
         epoch_[static_cast<std::size_t>(rank)], op.handle, site,
         std::string("free_symmetric while a ") + op_name(op.kind) +
             " issued at " + site_str(op.site) + " is still pending");
  }
  if (++free_arrivals_[seq] == team_.size()) {
    free_arrivals_.erase(seq);
    for (auto it = segs_by_id_.begin(); it != segs_by_id_.end();) {
      if (it->first.first == seq) {
        if (it->second.base != 0) segs_by_base_.erase(it->second.base);
        it = segs_by_id_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(ops_, [seq](const OpRecord& op) { return op.seq == seq; });
  }
}

void RmaChecker::check_region_conflicts(const OpRecord& incoming) {
  if (incoming.seq == kNoRegion || incoming.remote.empty()) return;
  for (const OpRecord& prior : ops_) {
    if (prior.seq != incoming.seq || prior.owner != incoming.owner) continue;
    if (!conflicts(this, prior.kind, prior.rank, prior.completed,
                   incoming.kind, incoming.rank))
      continue;
    if (!footprints_overlap(prior.remote, incoming.remote)) continue;
    std::ostringstream os;
    os << op_name(incoming.kind) << " overlaps a " << op_name(prior.kind)
       << " by rank " << prior.rank << " (issued at " << site_str(prior.site)
       << (prior.completed ? ", completed" : ", still pending")
       << ") in the same barrier epoch; separate conflicting accesses with a "
          "barrier";
    emit(Diag::EpochConflict, incoming.rank, incoming.seq, incoming.owner,
         incoming.remote, incoming.epoch, incoming.handle, incoming.site,
         os.str());
    return;  // one report per issue is enough
  }
}

void RmaChecker::check_local_reuse(int rank, const Footprint& local,
                                   std::source_location site,
                                   const char* what) {
  if (local.empty()) return;
  for (const OpRecord& prior : ops_) {
    if (prior.rank != rank || prior.kind != OpKind::Get || prior.completed)
      continue;
    if (!footprints_overlap(prior.local, local)) continue;
    std::ostringstream os;
    os << what << " touches the destination buffer of a get (issued at "
       << site_str(prior.site) << ") that has not been wait()ed";
    emit(Diag::UseBeforeWait, rank, prior.seq, prior.owner, prior.remote,
         epoch_[static_cast<std::size_t>(rank)], prior.handle, site, os.str());
    return;
  }
}

std::uint64_t RmaChecker::on_issue(int rank, OpKind kind, int owner,
                                   const double* remote, Footprint remote_shape,
                                   const double* local, Footprint local_shape,
                                   std::source_location site) {
  std::lock_guard<std::mutex> lock(mu_);
  OpRecord op;
  op.kind = kind;
  op.rank = rank;
  op.handle = next_handle_++;
  op.completed = false;
  op.epoch = epoch_[static_cast<std::size_t>(rank)];
  op.seq = kNoRegion;
  op.owner = -1;
  op.site = site;

  // (1) the origin buffer of this op must not alias a pending get's
  // destination: a get re-targeting the buffer is premature reuse, a
  // put/acc reading it sends stale data.
  if (local != nullptr && !local_shape.empty()) {
    local_shape.lo = reinterpret_cast<std::uint64_t>(local);
    op.local = local_shape;
    check_local_reuse(rank, op.local, site,
                      kind == OpKind::Get ? "get destination reuse"
                                          : "put/acc source read");
  }

  // Resolve the owner-side pointer against the live segments.
  if (remote != nullptr && !remote_shape.empty()) {
    const std::uint64_t addr = reinterpret_cast<std::uint64_t>(remote);
    if (const Segment* seg = find_segment(addr)) {
      op.seq = seg->seq;
      op.owner = seg->owner;
      remote_shape.lo = addr - seg->base;
      op.remote = remote_shape;
      // (5) footprint must stay inside the owner's segment.
      if (op.remote.span_end() > seg->len) {
        std::ostringstream os;
        os << op_name(kind) << " footprint ends at byte "
           << op.remote.span_end() << " but the owner segment is only "
           << seg->len << " bytes";
        emit(Diag::OutOfBounds, rank, op.seq, op.owner, op.remote, op.epoch,
             op.handle, site, os.str());
      }
      // (3) conflicting access in the same epoch.
      check_region_conflicts(op);
    }
  } else {
    // Phantom transfer: no owner-side pointer to resolve.  Attribute the
    // footprint to the nominal owner so handle-lifecycle checks still run.
    op.owner = owner;
  }

  journal_op(op);
  ops_.push_back(op);
  return op.handle;
}

void RmaChecker::on_wait(int rank, std::uint64_t handle_id,
                         std::source_location site) {
  if (handle_id == 0) return;  // issued while the checker was off
  std::lock_guard<std::mutex> lock(mu_);
  journal_event("wait", rank, kNoRegion, handle_id);
  auto& done = completed_handles_[static_cast<std::size_t>(rank)];
  if (done.count(handle_id) != 0) {
    emit(Diag::DoubleWait, rank, kNoRegion, -1, Footprint{},
         epoch_[static_cast<std::size_t>(rank)], handle_id, site,
         "wait() on a handle that already completed (likely a lost or "
         "aliased handle)");
    return;
  }
  for (OpRecord& op : ops_) {
    if (op.handle != handle_id) continue;
    op.completed = true;
    done.insert(handle_id);
    return;
  }
  // The record crossed a barrier unwaited (reported there) or belongs to a
  // freed region; nothing further to check.
}

void RmaChecker::on_barrier(int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_event("barrier", rank, kNoRegion, 0);
  // (2) every handle this rank issued in the closing epoch must be complete.
  for (const OpRecord& op : ops_) {
    if (op.rank != rank || op.completed || op.handle == 0) continue;
    emit(Diag::UnwaitedAtBarrier, rank, op.seq, op.owner, op.remote, op.epoch,
         op.handle, op.site,
         std::string("nonblocking ") + op_name(op.kind) +
             " crossed a barrier without wait(); its completion is now "
             "undefined");
  }
  std::erase_if(ops_, [rank](const OpRecord& op) { return op.rank == rank; });
  completed_handles_[static_cast<std::size_t>(rank)].clear();
  ++epoch_[static_cast<std::size_t>(rank)];
}

void RmaChecker::on_direct_access(int rank, int owner, std::uint64_t seq,
                                  Footprint shape, std::source_location site) {
  std::lock_guard<std::mutex> lock(mu_);
  // (4) reach-through is only legal within the caller's memory domain.
  if (!team_.machine().same_domain(rank, owner)) {
    std::ostringstream os;
    os << "direct load/store to a segment owned by rank " << owner
       << " (domain " << team_.machine().domain_of(owner)
       << ") from a rank in domain " << team_.machine().domain_of(rank)
       << "; remote segments must be reached with get/put";
    emit(Diag::NonDomainDirect, rank, seq, owner, shape,
         epoch_[static_cast<std::size_t>(rank)], 0, site, os.str());
    return;
  }
  OpRecord op;
  op.kind = OpKind::DirectRead;
  op.rank = rank;
  op.handle = 0;
  op.completed = true;
  op.epoch = epoch_[static_cast<std::size_t>(rank)];
  op.seq = seq;
  op.owner = owner;
  op.remote = shape;
  op.site = site;
  if (const Segment* seg = find_segment_by_id(seq, owner)) {
    if (seg->len != 0 && op.remote.span_end() > seg->len) {
      std::ostringstream os;
      os << "direct access footprint ends at byte " << op.remote.span_end()
         << " but the owner segment is only " << seg->len << " bytes";
      emit(Diag::OutOfBounds, rank, seq, owner, op.remote, op.epoch, 0, site,
           os.str());
    }
  }
  check_region_conflicts(op);
  journal_op(op);
  ops_.push_back(op);
}

void RmaChecker::on_shared_read(int rank, int owner, std::uint64_t seq,
                                Footprint shape, std::source_location site) {
  std::lock_guard<std::mutex> lock(mu_);
  OpRecord op;
  op.kind = OpKind::Get;
  op.rank = rank;
  op.handle = 0;  // no wait lifecycle: the share completes synchronously
  op.completed = true;
  op.epoch = epoch_[static_cast<std::size_t>(rank)];
  op.seq = seq;
  op.owner = owner;
  op.remote = shape;
  op.site = site;
  if (const Segment* seg = find_segment_by_id(seq, owner)) {
    if (seg->len != 0 && op.remote.span_end() > seg->len) {
      std::ostringstream os;
      os << "cache shared-read footprint ends at byte " << op.remote.span_end()
         << " but the owner segment is only " << seg->len << " bytes";
      emit(Diag::OutOfBounds, rank, seq, owner, op.remote, op.epoch, 0, site,
           os.str());
    }
  }
  check_region_conflicts(op);
  journal_op(op);
  ops_.push_back(op);
}

void RmaChecker::on_compute_access(int rank, const double* ptr,
                                   Footprint shape, bool write,
                                   std::source_location site) {
  if (ptr == nullptr || shape.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t addr = reinterpret_cast<std::uint64_t>(ptr);
  Footprint abs = shape;
  abs.lo = addr;
  // (1) compute must not consume a buffer a pending get is still filling.
  check_local_reuse(rank, abs, site,
                    write ? "compute write" : "compute read");

  OpRecord op;
  op.kind = write ? OpKind::LocalWrite : OpKind::ComputeRead;
  op.rank = rank;
  op.handle = 0;
  op.completed = true;
  op.epoch = epoch_[static_cast<std::size_t>(rank)];
  op.seq = kNoRegion;
  op.owner = -1;
  op.local = abs;
  op.site = site;
  if (const Segment* seg = find_segment(addr)) {
    op.seq = seg->seq;
    op.owner = seg->owner;
    op.remote = shape;
    op.remote.lo = addr - seg->base;
    // (3) local compute on a live region joins the epoch conflict map.
    check_region_conflicts(op);
  }
  journal_op(op);
  ops_.push_back(op);
}

std::vector<CheckReport> RmaChecker::reports() {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

std::size_t RmaChecker::report_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_.size();
}

void RmaChecker::clear_reports() {
  std::lock_guard<std::mutex> lock(mu_);
  reports_.clear();
}

}  // namespace srumma::check
