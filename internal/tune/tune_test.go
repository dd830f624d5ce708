package tune

import (
	"errors"
	"os"
	"regexp"
	"testing"
	"time"

	"mets/internal/obs"
)

// feed is a fake index: the tests add to it what a workload would, and its
// sample method is the Targets.Sample the tuner reads.
type feed struct{ s Sample }

func (f *feed) sample() Sample {
	s := f.s
	s.ShardOps = append([]int64(nil), f.s.ShardOps...)
	return s
}

// tick drives n ticks.
func tick(t *Tuner, n int) {
	for i := 0; i < n; i++ {
		t.Tick()
	}
}

func TestTriggerHysteresis(t *testing.T) {
	var tr trigger
	// Needs 3 consecutive trips.
	if tr.step(true, 3, 5) || tr.step(true, 3, 5) {
		t.Fatal("fired before 3 consecutive trips")
	}
	if !tr.step(true, 3, 5) {
		t.Fatal("did not fire on the 3rd consecutive trip")
	}
	// Cooldown: 5 ticks disarmed even while tripped.
	for i := 0; i < 5; i++ {
		if tr.step(true, 3, 5) {
			t.Fatalf("fired during cooldown (tick %d)", i)
		}
	}
	// A non-consecutive pattern never fires.
	tr = trigger{}
	for i := 0; i < 20; i++ {
		if tr.step(i%3 != 2, 3, 5) && i%3 == 1 {
			t.Fatal("fired on interrupted trip run")
		}
		if i%3 == 2 {
			tr.trips = 0
		}
	}
}

// cpr feeds one CPR window: src/enc bytes such that the windowed ratio is
// `ratio` with enough volume to clear CPRMinBytes.
func (f *feed) cpr(ratio float64) {
	const enc = 1 << 20
	f.s.CodecEncBytes += enc
	f.s.CodecSrcBytes += int64(ratio * enc)
}

func TestCPRStationaryNeverRetrains(t *testing.T) {
	var f feed
	retrains := 0
	reg := obs.NewRegistry()
	tn := New(Config{Trips: 3, Cooldown: 5}, reg,
		Targets{Sample: f.sample, RetrainCodec: func() error { retrains++; return nil }})
	// A stationary workload with small ratio noise must never trip: the
	// windows wobble around 3.0, far above the 0.85 decay threshold.
	noise := []float64{3.0, 2.9, 3.1, 2.95, 3.05, 2.85, 3.0}
	for i := 0; i < 200; i++ {
		f.cpr(noise[i%len(noise)])
		tn.Tick()
	}
	m := reg.Snapshot()
	if retrains != 0 || m.Counters["tune.retrains"] != 0 || m.Gauges["tune.cpr_window"] < 2.8 || m.Gauges["tune.cpr_baseline"] < 3.0 {
		t.Fatalf("stationary workload fired %d retrains; tune.* = %v %v", retrains, m.Counters, m.Gauges)
	}
}

func TestCPRDecayFiresOnceThenRebaselines(t *testing.T) {
	var f feed
	retrains := 0
	reg := obs.NewRegistry()
	tn := New(Config{Trips: 3, Cooldown: 5}, reg,
		Targets{Sample: f.sample, RetrainCodec: func() error { retrains++; return nil }})
	for i := 0; i < 10; i++ { // establish a 3.0 baseline
		f.cpr(3.0)
		tn.Tick()
	}
	// Drift: the ratio collapses and stays collapsed (a stub retrain cannot
	// actually restore it — exactly the flap hazard the baseline reset
	// guards against).
	for i := 0; i < 100; i++ {
		f.cpr(1.2)
		tn.Tick()
	}
	if retrains != 1 {
		t.Fatalf("decay fired %d retrains, want exactly 1 (no flapping)", retrains)
	}
	if c := reg.Snapshot().Counters; c["tune.retrains"] != 1 || c["tune.ticks"] != 110 {
		t.Fatalf("tune.* counters = %v", c)
	}
}

func TestCPRBelowVolumeFloorIgnored(t *testing.T) {
	var f feed
	retrains := 0
	tn := New(Config{Trips: 2, Cooldown: 3}, obs.NewRegistry(),
		Targets{Sample: f.sample, RetrainCodec: func() error { retrains++; return nil }})
	for i := 0; i < 5; i++ {
		f.cpr(3.0)
		tn.Tick()
	}
	// Collapsed ratio but only a few bytes per tick: noise, not drift.
	for i := 0; i < 50; i++ {
		f.s.CodecEncBytes += 100
		f.s.CodecSrcBytes += 100
		tn.Tick()
	}
	if retrains != 0 {
		t.Fatalf("sub-floor windows fired %d retrains", retrains)
	}
}

// ops adds per-shard op deltas.
func (f *feed) ops(perShard ...int64) {
	if f.s.ShardOps == nil {
		f.s.ShardOps = make([]int64, len(perShard))
	}
	for i, d := range perShard {
		f.s.ShardOps[i] += d
	}
}

func TestSkewFiresRebalanceWithHysteresis(t *testing.T) {
	var f feed
	rebalances := 0
	reg := obs.NewRegistry()
	tn := New(Config{Trips: 3, Cooldown: 5, SkewMinOps: 1000, SkewRatio: 3}, reg,
		Targets{Sample: f.sample, Rebalance: func() error { rebalances++; return nil }})
	// Balanced load: never fires.
	for i := 0; i < 20; i++ {
		f.ops(500, 500, 500, 500)
		tn.Tick()
	}
	if skew := reg.Snapshot().Gauges["tune.skew"]; rebalances != 0 || skew != 1 {
		t.Fatalf("balanced load fired %d rebalances; tune.skew = %v", rebalances, skew)
	}
	// All load on shard 3: skew = 4.0 >= 3 → fires after 3 consecutive
	// trips, then holds through the cooldown.
	fired := 0
	for i := 0; i < 8; i++ {
		f.ops(0, 0, 0, 2000)
		tn.Tick()
		fired = rebalances
		if i < 2 && fired != 0 {
			t.Fatalf("fired after only %d skewed ticks", i+1)
		}
	}
	if m := reg.Snapshot(); fired != 1 || m.Counters["tune.rebalances"] != 1 || m.Gauges["tune.skew"] != 4 {
		t.Fatalf("sustained skew fired %d rebalances in 8 ticks, want 1 (cooldown); tune.rebalances = %d, tune.skew = %v",
			fired, m.Counters["tune.rebalances"], m.Gauges["tune.skew"])
	}
}

func TestMergeDebtNudges(t *testing.T) {
	f := feed{s: Sample{MergeBehind: 1}}
	nudged := 0
	reg := obs.NewRegistry()
	tn := New(Config{MergeBehindTicks: 3}, reg,
		Targets{Sample: f.sample, NudgeMerges: func() int { nudged++; return 1 }})
	tick(tn, 2)
	if nudged != 0 {
		t.Fatalf("nudged after only 2 behind ticks")
	}
	tick(tn, 1)
	if nudged != 1 {
		t.Fatalf("nudged %d times after 3 behind ticks, want 1", nudged)
	}
	f.s.MergeBehind = 0
	tick(tn, 10)
	if n := reg.Snapshot().Counters["tune.merge_nudges"]; nudged != 1 || n != 1 {
		t.Fatalf("nudged %d times with no debt; tune.merge_nudges = %d", nudged, n)
	}
}

func TestActionErrorCounted(t *testing.T) {
	var f feed
	reg := obs.NewRegistry()
	tn := New(Config{Trips: 1, Cooldown: 2}, reg,
		Targets{Sample: f.sample, RetrainCodec: func() error { return errors.New("boom") }})
	f.cpr(3.0)
	tn.Tick()
	for i := 0; i < 10; i++ {
		f.cpr(1.0)
		tn.Tick()
	}
	if c := reg.Snapshot().Counters; c["tune.errors"] == 0 || c["tune.retrains"] != 0 {
		t.Fatalf("tune.* counters = %v, want errors counted and no retrains", c)
	}
}

// TestStartStopIdempotent reads whether the loop runs from tune.ticks: it
// advances after Start (twice is one loop) and stands still after Stop.
func TestStartStopIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	tn := New(Config{Interval: time.Millisecond}, reg, Targets{})
	ticks := func() int64 { return reg.Snapshot().Counters["tune.ticks"] }
	tn.Stop() // never started: no-op
	tn.Start()
	tn.Start()
	for deadline := time.Now().Add(5 * time.Second); ticks() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("tune.ticks = %d 5s after Start, want the loop ticking", ticks())
		}
	}
	tn.Stop()
	tn.Stop()
	stopped := ticks()
	time.Sleep(20 * time.Millisecond)
	if n := ticks(); n != stopped {
		t.Fatalf("tune.ticks went %d -> %d after Stop", stopped, n)
	}
}

// TestTunerNamesOnlyItsOwnMetrics pins the boundary the Sample draws: the
// tuner is handed its inputs, so the only metric and event names its source
// may spell are its own "tune." outputs — never a counter or gauge of the
// index it tunes — and it never copies the registry to look for one.
func TestTunerNamesOnlyItsOwnMetrics(t *testing.T) {
	src, err := os.ReadFile("tune.go")
	if err != nil {
		t.Fatal(err)
	}
	if regexp.MustCompile(`\.Snapshot\(`).Match(src) {
		t.Fatal("tune.go snapshots a registry; its inputs arrive as a Sample")
	}
	named := regexp.MustCompile(`\.(?:Counter|Gauge|GaugeFunc|Histogram|Record|RecordSpan|StartSpan)\(\s*"([^"]*)"`)
	names := named.FindAllSubmatch(src, -1)
	if len(names) < 9 { // five counters and four gauges at least, or the pattern has rotted
		t.Fatalf("found only %d metric names in tune.go", len(names))
	}
	for _, m := range names {
		if name := string(m[1]); len(name) < 6 || name[:5] != "tune." {
			t.Fatalf("tune.go names %q, a metric outside tune.*", name)
		}
	}
	if m := regexp.MustCompile(`"(?:shard\d*\.|keycodec\.|merge_behind)[^"]*"`).Find(src); m != nil {
		t.Fatalf("tune.go spells %s, a name of the index it tunes", m)
	}
}
