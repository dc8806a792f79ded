#include "resilience/sdc.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "obs/trace.hh"

namespace recperf {

std::string
SdcOptions::validate() const
{
    if (scrubIntervalSeconds < 0.0)
        return strprintf("scrub interval cannot be negative (got %g s)",
                         scrubIntervalSeconds);
    if (inlineSampleRate < 0.0 || inlineSampleRate > 1.0)
        return strprintf("inline sampling rate %g outside (0,1]",
                         inlineSampleRate);
    if (canaryIntervalSeconds < 0.0)
        return strprintf("canary interval cannot be negative (got %g s)",
                         canaryIntervalSeconds);
    if (repairRttSeconds < 0.0)
        return strprintf("repair RTT cannot be negative (got %g s)",
                         repairRttSeconds);
    if (repairBandwidthGBps <= 0.0)
        return strprintf("repair bandwidth must be positive (got %g "
                         "GB/s)", repairBandwidthGBps);
    if (drainDensity < 0.0 || drainDensity > 1.0)
        return strprintf("drain density %g out of [0,1]", drainDensity);
    if (quarantineQuality > 1.0)
        return strprintf("quarantine quality %g above 1",
                         quarantineQuality);
    if (lookupZipfAlpha < 0.0)
        return strprintf("lookup zipf skew cannot be negative (got %g)",
                         lookupZipfAlpha);
    return "";
}

SdcController::SdcController(const SdcOptions &options,
                             const CorruptionTopology &topology,
                             FaultInjector *injector,
                             uint64_t lookup_seed, int64_t batch,
                             int64_t lookups_per_table)
    : options_(options), topology_(topology), injector_(injector),
      batch_(batch), lookups_per_table_(lookups_per_table),
      rng_(lookup_seed ^ 0x10de7ab1e5ULL)
{
    std::string err = options_.validate();
    RP_ASSERT(err.empty(), "%s", err.c_str());
    RP_ASSERT(!topology_.empty(), "SDC controller needs a topology");
    RP_ASSERT(injector_ != nullptr, "SDC controller needs an injector");
    RP_ASSERT(options_.quarantineQuality > 0.0,
              "quarantine quality must be resolved (> 0) before "
              "construction");
    nodes_.resize(static_cast<size_t>(topology_.shards) *
                  topology_.replicas);
    every_n_ = options_.inlineSampleRate > 0.0
        ? std::max<uint64_t>(
              1, static_cast<uint64_t>(
                     std::llround(1.0 / options_.inlineSampleRate)))
        : 0;

    Rng lookup_master(lookup_seed ^ 0x100cab5eedULL);
    Rng canary_master(lookup_seed ^ 0xca4a475eedULL);
    for (uint32_t s = 0; s < topology_.shards; ++s) {
        std::vector<int64_t> offsets;
        int64_t off = 0;
        for (int64_t rows : topology_.tableRows[s]) {
            offsets.push_back(off);
            off += rows;
        }
        table_offsets_.push_back(std::move(offsets));
        if (options_.lookupZipfAlpha > 0.0) {
            std::vector<ZipfGen> gens, cgens;
            for (int64_t rows : topology_.tableRows[s]) {
                gens.emplace_back(rows, options_.lookupZipfAlpha,
                                  lookup_master.split());
                cgens.emplace_back(rows, options_.lookupZipfAlpha,
                                   canary_master.split());
            }
            lookup_gens_.push_back(std::move(gens));
            canary_gens_.push_back(std::move(cgens));
        }
    }
    stats_.active = true;
}

void
SdcController::calibrate(double fresh_p50_seconds, double stream_gbps)
{
    // Each canary costs one fresh inference of serving capacity; an
    // interval no longer than that schedules canary work faster than
    // it lets the clock advance, so the run would never finish.
    const double canary = options_.canaryIntervalSeconds;
    if (canary > 0.0 && canary <= fresh_p50_seconds) {
        throw FatalError(strprintf(
            "canary interval %g ms must be longer than the calibrated "
            "per-canary cost %g ms (one fresh inference)", canary * 1e3,
            fresh_p50_seconds * 1e3));
    }
    fresh_p50_ = fresh_p50_seconds;
    stream_gbps_ = stream_gbps;
    if (options_.scrubIntervalSeconds > 0.0) {
        int64_t widest = 0;
        for (uint32_t s = 0; s < topology_.shards; ++s)
            widest = std::max(widest, topology_.shardRows(s));
        // While sweeping (i.e. always, the scrubber is continuous) the
        // checksum re-reads steal table bandwidth from the gathers.
        double scrub_bps = static_cast<double>(widest) * rowBytes() /
            options_.scrubIntervalSeconds;
        scrub_slowdown_ = 1.0 + scrub_bps / (stream_gbps_ * 1e9);
    }
}

void
SdcController::setTracer(obs::Tracer *tracer, int lane_base)
{
    tracer_ = tracer;
    lane_base_ = lane_base;
    if (tracer_ == nullptr)
        return;
    for (uint32_t s = 0; s < topology_.shards; ++s)
        for (uint32_t r = 0; r < topology_.replicas; ++r)
            tracer_->nameLane(
                static_cast<uint32_t>(lane_base_) +
                    s * topology_.replicas + r,
                topology_.replicas > 1
                    ? strprintf("scrub s%u r%u", s, r)
                    : strprintf("scrub s%u", s));
    tracer_->nameLane(
        static_cast<uint32_t>(lane_base_ + nodes_.size()),
        "param-store");
}

int64_t
SdcController::rowKey(int32_t table, int64_t row) const
{
    return (static_cast<int64_t>(table) << 40) | row;
}

SdcController::NodeState &
SdcController::node(uint32_t shard, uint32_t replica)
{
    return nodes_[static_cast<size_t>(shard) * topology_.replicas +
                  replica];
}

double
SdcController::rowBytes() const
{
    return static_cast<double>(topology_.embDim) * sizeof(float);
}

void
SdcController::applyEvent(const CorruptionEvent &ev, size_t index)
{
    if (ev.table < 0) {
        ++stats_.injectedFc;
        fc_corrupted_[ev.row].push_back(index);
    } else {
        ++stats_.injectedRows;
        NodeState &st = node(ev.shard, ev.replica);
        if (st.drainUntil > ev.time) {
            // The replica is mid-rehydrate; the fresh parameter copy
            // overwrites the flip before it can ever be read.
            events_[index].cleared = true;
            ++stats_.clearedRows;
            return;
        }
        st.corrupted[rowKey(ev.table, ev.row)].push_back(index);
    }
    if (tracer_ != nullptr) {
        uint32_t lane = ev.table < 0
            ? static_cast<uint32_t>(lane_base_ + nodes_.size())
            : static_cast<uint32_t>(lane_base_) +
                ev.shard * topology_.replicas + ev.replica;
        tracer_->instant("integrity", "injected", ev.time, lane,
                         {{"kind", corruptionKindName(ev.kind)},
                          {"table", strprintf("%d", ev.table)},
                          {"row", strprintf("%lld",
                                            static_cast<long long>(
                                                ev.row))}});
    }
}

void
SdcController::detectRow(NodeState &state, uint32_t node_index,
                         int64_t key, double now,
                         DetectionChannel channel)
{
    auto it = state.corrupted.find(key);
    RP_ASSERT(it != state.corrupted.end(), "detecting a clean row");
    for (size_t index : it->second) {
        EventRecord &rec = events_[index];
        rec.detectTime = now;
        rec.channel = channel;
        ++stats_.detected;
        switch (channel) {
        case DetectionChannel::Scrub:
            ++stats_.detectedScrub;
            break;
        case DetectionChannel::Inline:
            ++stats_.detectedInline;
            break;
        case DetectionChannel::Guard:
            ++stats_.detectedGuard;
            break;
        case DetectionChannel::Canary:
            ++stats_.detectedCanary;
            break;
        case DetectionChannel::None:
            break;
        }
        stats_.detectionLatency.add(now - rec.event.time);
    }
    state.corrupted.erase(it);

    if (tracer_ != nullptr) {
        tracer_->instant("integrity", "detected", now,
                         static_cast<uint32_t>(lane_base_) + node_index,
                         {{"channel",
                           strprintf("%d", static_cast<int>(channel))}});
    }
    // A row re-corrupted while already awaiting its re-fetch needs no
    // second transfer: the pending fresh copy overwrites this flip too.
    if (state.quarantined.count(key) != 0)
        return;

    // Quarantine the row (it serves stale/zero from here) and queue
    // the re-fetch on the serialized parameter-store channel.
    double start = std::max(now, channel_free_);
    double done = start + options_.repairRttSeconds +
        rowBytes() / (options_.repairBandwidthGBps * 1e9);
    channel_free_ = done;
    stats_.repairSeconds += done - start;
    state.quarantined[key] = done;
    ++stats_.quarantinedRows;
    if (tracer_ != nullptr) {
        tracer_->span("integrity", "repair", start, done,
                      static_cast<uint32_t>(lane_base_ + nodes_.size()));
    }
}

double
SdcController::detectFc(double now, DetectionChannel channel)
{
    if (fc_corrupted_.empty())
        return 0.0;
    double cost = 0.0;
    double fc_bytes = static_cast<double>(topology_.fcRowBits) / 8.0;
    for (const auto &entry : fc_corrupted_) {
        for (size_t index : entry.second) {
            EventRecord &rec = events_[index];
            rec.detectTime = now;
            rec.channel = channel;
            ++stats_.detected;
            if (channel == DetectionChannel::Guard)
                ++stats_.detectedGuard;
            else
                ++stats_.detectedCanary;
            stats_.detectionLatency.add(now - rec.event.time);
        }
        // FC weights feed every response, so the re-fetch is
        // synchronous: the caller eats the transfer before answering.
        cost += options_.repairRttSeconds +
            fc_bytes / (options_.repairBandwidthGBps * 1e9);
        ++stats_.repairs;
    }
    stats_.repairSeconds += cost;
    fc_corrupted_.clear();
    return cost;
}

void
SdcController::scrubTo(double now)
{
    if (options_.scrubIntervalSeconds <= 0.0)
        return;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        NodeState &st = nodes_[i];
        if (st.drainUntil > now) {
            st.scrubTime = now; // scrubber idles while rehydrating
            continue;
        }
        if (st.drainUntil > st.scrubTime)
            st.scrubTime = st.drainUntil;
        if (now <= st.scrubTime)
            continue;
        uint32_t shard = static_cast<uint32_t>(i) / topology_.replicas;
        double total = static_cast<double>(topology_.shardRows(shard));
        double rate = total / options_.scrubIntervalSeconds;
        double advance = (now - st.scrubTime) * rate;
        double start_pos = st.scrubPos;
        double start_time = st.scrubTime;

        // Detect every corrupted row whose linear position the sweep
        // crosses; detection time is when the sweep reaches it.
        std::vector<std::pair<int64_t, double>> hits;
        for (const auto &entry : st.corrupted) {
            int32_t table = static_cast<int32_t>(entry.first >> 40);
            int64_t row = entry.first & ((1LL << 40) - 1);
            double pos = static_cast<double>(
                table_offsets_[shard][static_cast<size_t>(table)] +
                row);
            double ahead = pos - start_pos;
            if (ahead < 0.0)
                ahead += total;
            if (ahead < advance)
                hits.emplace_back(entry.first,
                                  start_time + ahead / rate);
        }
        std::sort(hits.begin(), hits.end(),
                  [](const auto &a, const auto &b) {
                      return a.second < b.second;
                  });
        for (const auto &hit : hits)
            detectRow(st, static_cast<uint32_t>(i), hit.first,
                      hit.second, DetectionChannel::Scrub);

        // Completed full sweeps become trace spans on the node's lane.
        double swept = start_pos + advance;
        while (swept >= total) {
            double cross = start_time + (total - start_pos) / rate;
            ++stats_.scrubSweeps;
            if (tracer_ != nullptr)
                tracer_->span("integrity", "scrub sweep", st.sweepStart,
                              cross,
                              static_cast<uint32_t>(lane_base_) +
                                  static_cast<uint32_t>(i));
            st.sweepStart = cross;
            swept -= total;
            start_pos = 0.0;
            start_time = cross;
        }
        st.scrubPos = swept;
        st.scrubTime = now;
    }
}

void
SdcController::completeRepairs(double now)
{
    for (NodeState &st : nodes_) {
        for (auto it = st.quarantined.begin();
             it != st.quarantined.end();) {
            if (it->second > now) {
                ++it;
                continue;
            }
            // The fresh copy also wipes any re-corruption that landed
            // while the row sat in quarantine.
            auto dirty = st.corrupted.find(it->first);
            if (dirty != st.corrupted.end()) {
                for (size_t index : dirty->second) {
                    events_[index].cleared = true;
                    ++stats_.clearedRows;
                }
                st.corrupted.erase(dirty);
            }
            ++stats_.repairs;
            it = st.quarantined.erase(it);
        }
    }
}

double
SdcController::runCanary(double now)
{
    ++stats_.canaryRuns;
    for (uint32_t s = 0; s < topology_.shards; ++s) {
        const std::vector<int64_t> &tables = topology_.tableRows[s];
        for (size_t t = 0; t < tables.size(); ++t) {
            for (int64_t j = 0; j < lookups_per_table_; ++j) {
                int64_t row = options_.lookupZipfAlpha > 0.0
                    ? canary_gens_[s][t].next()
                    : static_cast<int64_t>(rng_.nextBelow(
                          static_cast<uint64_t>(tables[t])));
                int64_t key = rowKey(static_cast<int32_t>(t), row);
                // The canary's golden-output compare flags the row on
                // whichever replica still holds the flip.
                for (uint32_t r = 0; r < topology_.replicas; ++r) {
                    NodeState &st = node(s, r);
                    if (st.corrupted.count(key) != 0)
                        detectRow(st, s * topology_.replicas + r, key,
                                  now, DetectionChannel::Canary);
                }
            }
        }
    }
    return detectFc(now, DetectionChannel::Canary);
}

void
SdcController::checkDrain(double now)
{
    if (options_.drainDensity <= 0.0)
        return;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        NodeState &st = nodes_[i];
        if (st.drainUntil > now)
            continue;
        uint32_t shard = static_cast<uint32_t>(i) / topology_.replicas;
        double total = static_cast<double>(topology_.shardRows(shard));
        double dirty = static_cast<double>(st.corrupted.size() +
                                           st.quarantined.size());
        if (dirty / total < options_.drainDensity)
            continue;
        // Escalate: take the replica out of rotation and stream a
        // fresh copy of its tables from the parameter store. The
        // serving loop sees the replica down, fails over, and the
        // ReplicaSet warm-up path covers the cold return.
        double rehydrate = options_.repairRttSeconds +
            total * rowBytes() /
                (options_.repairBandwidthGBps * 1e9);
        st.drainUntil = now + rehydrate;
        stats_.rowsRehydrated += st.corrupted.size() +
            st.quarantined.size();
        for (const auto &entry : st.corrupted)
            for (size_t index : entry.second) {
                events_[index].cleared = true;
                ++stats_.clearedRows;
            }
        st.corrupted.clear();
        st.quarantined.clear();
        ++stats_.rehydrates;
        if (tracer_ != nullptr)
            tracer_->instant(
                "integrity", "rehydrate", now,
                static_cast<uint32_t>(lane_base_) +
                    static_cast<uint32_t>(i),
                {{"until", strprintf("%.6f", st.drainUntil)}});
    }
}

bool
SdcController::replicaDrained(uint32_t shard, uint32_t replica,
                              double now) const
{
    const NodeState &st =
        nodes_[static_cast<size_t>(shard) * topology_.replicas +
               replica];
    return st.drainUntil > now;
}

double
SdcController::beginInference(double now)
{
    for (const CorruptionEvent &ev :
         injector_->drawCorruptionsUpTo(now)) {
        events_.push_back(EventRecord{ev, -1.0, DetectionChannel::None,
                                      false});
        applyEvent(ev, events_.size() - 1);
    }
    scrubTo(now);
    completeRepairs(now);
    double maintenance = 0.0;
    if (options_.canaryIntervalSeconds > 0.0) {
        if (next_canary_ < 0.0)
            next_canary_ = options_.canaryIntervalSeconds;
        while (next_canary_ <= now) {
            // One synthetic query's worth of serving capacity per
            // canary (plus any synchronous FC re-fetch it triggers):
            // a goodput tax, not added latency.
            maintenance += fresh_p50_ + runCanary(next_canary_);
            next_canary_ += options_.canaryIntervalSeconds;
        }
    }
    checkDrain(now);
    scratch_ = Scratch{};
    scratch_.open = true;
    return maintenance;
}

double
SdcController::onShardLookup(uint32_t shard, uint32_t replica,
                             double now)
{
    RP_ASSERT(scratch_.open, "onShardLookup outside an inference");
    NodeState &st = node(shard, replica);
    ++st.batches;
    bool sampled = every_n_ > 0 && st.batches % every_n_ == 0;
    const std::vector<int64_t> &tables = topology_.tableRows[shard];
    int64_t per_table = batch_ * lookups_per_table_;
    scratch_.draws += per_table * static_cast<int64_t>(tables.size());

    // Clean replica and no verification due: the drawn rows could not
    // change anything, so skip the draw work entirely.
    if (!sampled && st.corrupted.empty() && st.quarantined.empty())
        return 0.0;

    uint32_t node_index = shard * topology_.replicas + replica;
    std::vector<int64_t> touched;
    if (sampled)
        touched.reserve(static_cast<size_t>(
            per_table * static_cast<int64_t>(tables.size())));
    for (size_t t = 0; t < tables.size(); ++t) {
        for (int64_t j = 0; j < per_table; ++j) {
            int64_t row = options_.lookupZipfAlpha > 0.0
                ? lookup_gens_[shard][t].next()
                : static_cast<int64_t>(rng_.nextBelow(
                      static_cast<uint64_t>(tables[t])));
            int64_t key = rowKey(static_cast<int32_t>(t), row);
            if (sampled)
                touched.push_back(key);
            if (st.quarantined.count(key) != 0) {
                scratch_.touched_quarantined = true;
            } else if (st.corrupted.count(key) != 0) {
                if (sampled) {
                    // Inline verification runs ahead of the gather:
                    // the batch serves the quarantine fallback instead
                    // of the flipped bytes.
                    detectRow(st, node_index, key, now,
                              DetectionChannel::Inline);
                    scratch_.touched_quarantined = true;
                } else {
                    scratch_.poisoned.emplace_back(node_index, key);
                }
            }
        }
    }
    if (!sampled)
        return 0.0;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    double verify = static_cast<double>(touched.size()) * rowBytes() /
        (stream_gbps_ * 1e9);
    stats_.verifySeconds += verify;
    return verify;
}

SdcController::Boundary
SdcController::endInference(double now)
{
    RP_ASSERT(scratch_.open, "endInference outside an inference");
    Boundary out;
    std::sort(scratch_.poisoned.begin(), scratch_.poisoned.end());
    scratch_.poisoned.erase(std::unique(scratch_.poisoned.begin(),
                                        scratch_.poisoned.end()),
                            scratch_.poisoned.end());
    bool fc_dirty = !fc_corrupted_.empty();
    if (options_.outputGuards) {
        // Envelope + checksum-on-read over the pooled outputs: one
        // fp32 read per gathered row's contribution.
        double guard = static_cast<double>(scratch_.draws) *
            sizeof(float) / (stream_gbps_ * 1e9);
        stats_.verifySeconds += guard;
        out.extraSeconds += guard;
        for (const auto &hit : scratch_.poisoned) {
            NodeState &st = nodes_[hit.first];
            if (st.corrupted.count(hit.second) != 0) {
                detectRow(st, hit.first, hit.second, now,
                          DetectionChannel::Guard);
                out.servedDegraded = true;
            }
        }
        if (fc_dirty) {
            out.extraSeconds += detectFc(now, DetectionChannel::Guard);
            out.servedDegraded = true;
        }
    } else if (!scratch_.poisoned.empty() || fc_dirty) {
        out.servedCorrupted = true;
        ++stats_.corruptedServed;
        if (tracer_ != nullptr)
            tracer_->instant(
                "integrity", "escape", now,
                static_cast<uint32_t>(lane_base_ + nodes_.size()));
    }
    if (scratch_.touched_quarantined)
        out.servedDegraded = true;
    if (out.servedCorrupted)
        out.quality = 0.0;
    else if (out.servedDegraded)
        out.quality = options_.quarantineQuality;
    if (out.servedDegraded)
        ++stats_.degradedServed;
    stats_.qualitySum += out.quality;
    scratch_ = Scratch{};
    return out;
}

void
SdcController::dropInference()
{
    scratch_ = Scratch{};
}

void
SdcController::finish(double now)
{
    for (const CorruptionEvent &ev :
         injector_->drawCorruptionsUpTo(now)) {
        events_.push_back(EventRecord{ev, -1.0, DetectionChannel::None,
                                      false});
        applyEvent(ev, events_.size() - 1);
    }
    if (options_.scrubIntervalSeconds > 0.0) {
        // One final full sweep: anything still resident is found
        // within a scrub period of the run's end.
        scrubTo(now + options_.scrubIntervalSeconds);
    }
    completeRepairs(1e30);
}

} // namespace recperf
