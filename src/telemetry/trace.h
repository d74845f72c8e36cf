// Granary span tracer, keyed on sim virtual time.
//
// A *track* is one per-component timeline (a soil, a PCIe bus, the seeder);
// it maps onto a chrome://tracing thread row. Spans on a track may overlap
// freely — in a discrete-event simulation the interesting intervals (poll
// RTT, harvester round) live across async callbacks, so this is an open-
// interval model, not a strict call stack: `depth` records how many spans
// were already open when a span began, which is what the nesting looks
// like when intervals do nest.
//
// Completed spans land in a bounded per-track ring buffer (oldest evicted
// first), so memory stays fixed no matter how long the run is.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/time.h"

namespace farm::telemetry {

using util::TimePoint;

using TrackId = std::uint32_t;
using SpanId = std::uint64_t;
inline constexpr SpanId kInvalidSpan = 0;

struct Span {
  std::string name;
  TimePoint begin;
  TimePoint end;
  std::uint32_t depth = 0;  // open spans on the track when this one began
  SpanId id = kInvalidSpan; // begin order across all tracks
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultTrackCapacity = 4096;

  explicit Tracer(std::size_t track_capacity = kDefaultTrackCapacity);

  // Find-or-create a track by name.
  TrackId track(std::string_view name);
  const std::string& track_name(TrackId t) const { return at(t).name; }
  std::size_t track_count() const { return tracks_.size(); }

  SpanId begin(TrackId t, std::string_view name, TimePoint at);
  // Ends an open span (spans may close out of begin order — async intervals
  // interleave). Ending an unknown/already-ended id is a harmless no-op,
  // mirroring Engine::cancel: completion callbacks race their timeouts.
  void end(TrackId t, SpanId id, TimePoint at);

  // Completed spans, oldest retained → newest.
  std::vector<Span> spans(TrackId t) const;
  // Visitor over the same spans without materializing a copy of the ring —
  // what exporters use (a full chrome-trace export would otherwise copy
  // every track's ring wholesale).
  void for_each_span(TrackId t,
                     const std::function<void(const Span&)>& fn) const;
  std::size_t open_count(TrackId t) const { return at(t).open.size(); }
  std::uint64_t completed_total(TrackId t) const { return at(t).completed; }

 private:
  struct Track {
    std::string name;
    // Begun, not yet ended, in begin order. Spans mostly end oldest first
    // (a FIFO channel completes in order), so a deque makes that O(1).
    std::deque<Span> open;
    std::vector<Span> done;          // ring buffer
    std::size_t head = 0;            // oldest slot in `done` once full
    std::uint64_t completed = 0;     // lifetime count incl. evicted
  };
  Track& at(TrackId t) {
    FARM_DCHECK(t < tracks_.size());
    return tracks_[t];
  }
  const Track& at(TrackId t) const {
    FARM_DCHECK(t < tracks_.size());
    return tracks_[t];
  }

  std::size_t capacity_;
  SpanId next_span_ = 1;
  std::vector<Track> tracks_;
};

}  // namespace farm::telemetry
