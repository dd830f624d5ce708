package keys

import (
	"math"
	"math/rand"
	"sort"
)

// SensorEvent is one record of the synthetic time-series workload used in
// the LSM system evaluation (§4.4): a 128-bit key of timestamp||sensorID.
type SensorEvent struct {
	Timestamp uint64 // nanoseconds
	SensorID  uint64
}

// Key returns the 16-byte big-endian key for the event.
func (e SensorEvent) Key() []byte { return Uint128(e.Timestamp, e.SensorID) }

// SensorEvents simulates numSensors sensors each recording events whose
// inter-arrival times follow an exponential distribution with the given mean
// (in nanoseconds), over the given duration. Events are returned sorted by
// key. This reproduces the Poisson event model of §4.4 at a configurable
// scale.
func SensorEvents(numSensors int, meanIntervalNs, durationNs uint64, seed int64) []SensorEvent {
	rng := rand.New(rand.NewSource(seed))
	var events []SensorEvent
	for s := 0; s < numSensors; s++ {
		// Random start within the first mean interval.
		t := uint64(rng.Int63n(int64(meanIntervalNs)))
		for t < durationNs {
			events = append(events, SensorEvent{Timestamp: t, SensorID: uint64(s)})
			gap := expRand(rng, float64(meanIntervalNs))
			t += gap
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Timestamp != events[j].Timestamp {
			return events[i].Timestamp < events[j].Timestamp
		}
		return events[i].SensorID < events[j].SensorID
	})
	return events
}

// expRand draws an exponentially distributed interval with the given mean,
// floored at 1ns so timestamps always advance.
func expRand(rng *rand.Rand, mean float64) uint64 {
	g := -mean * math.Log(1-rng.Float64())
	if g < 1 {
		g = 1
	}
	return uint64(g)
}
