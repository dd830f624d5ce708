// Package tune is the adaptive drift tuner: a background controller that
// reads, once per tick, a Sample its owner hands it, looks for the three drift
// signatures a sharded hybrid index develops under a shifting workload, and
// autonomously triggers the matching reconfiguration through the owner's
// reconfig seam:
//
//   - codec drift — the windowed compression ratio (source over encoded key
//     bytes, deltas per tick) decays below a fraction of the best ratio seen
//     since the last retrain, meaning new keys no longer match the trained
//     dictionary → retrain the codec.
//   - shard skew — one shard's per-tick op-count delta dominates the others
//     (max*shards/total beyond a ratio), meaning the router's boundaries no
//     longer split the live key distribution → rebalance the shards.
//   - merge debt — shards sit behind their merge trigger for several
//     consecutive ticks → nudge background merges.
//
// Every detector runs through hysteresis (consecutive trips required to fire,
// then a cooldown during which it cannot fire again), so a noisy stationary
// workload never flaps the expensive actions. The tuner only reads samples
// and calls the Targets closures — it never touches index internals and knows
// no metric but its own "tune." outputs; the owner routes each action through
// its reconfiguration seam, which is what makes autonomous tuning as safe as a
// manual BulkLoad.
package tune

import (
	"sync"
	"time"

	"mets/internal/obs"
)

// Config tunes the detectors. Zero values select the defaults noted on each
// field; the defaults suit a ~1s tick against a steadily loaded index, while
// tests and benches shrink the intervals and floors to trip within
// milliseconds.
type Config struct {
	// Interval is the background tick period (default 1s).
	Interval time.Duration
	// CPRDecay fires the codec-retrain detector when the windowed
	// compression ratio falls below CPRDecay times the best ratio observed
	// since the last retrain (default 0.85).
	CPRDecay float64
	// CPRMinBytes is the minimum encoded-byte delta per tick for the CPR
	// window to count — below it the ratio is noise (default 64 KiB).
	CPRMinBytes int64
	// SkewRatio fires the rebalance detector when the hottest shard's
	// per-tick op delta exceeds SkewRatio times its fair share
	// (max*shards/total; default 4).
	SkewRatio float64
	// SkewMinOps is the minimum total op delta per tick for the skew ratio
	// to count (default 10000).
	SkewMinOps int64
	// MergeBehindTicks nudges background merges after this many consecutive
	// ticks with at least one shard behind its merge trigger (default 3).
	MergeBehindTicks int
	// Trips is how many consecutive tripped ticks the retrain and rebalance
	// detectors need before firing (default 3).
	Trips int
	// Cooldown is how many ticks a detector stays disarmed after firing
	// (default 10). Hysteresis: Trips filters noise spikes, Cooldown bounds
	// the reconfiguration rate even under sustained drift.
	Cooldown int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.CPRDecay <= 0 {
		c.CPRDecay = 0.85
	}
	if c.CPRMinBytes <= 0 {
		c.CPRMinBytes = 64 << 10
	}
	if c.SkewRatio <= 0 {
		c.SkewRatio = 4
	}
	if c.SkewMinOps <= 0 {
		c.SkewMinOps = 10000
	}
	if c.MergeBehindTicks <= 0 {
		c.MergeBehindTicks = 3
	}
	if c.Trips <= 0 {
		c.Trips = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10
	}
	return c
}

// Sample is one tick's detector inputs. Counts are cumulative since the index
// was built; the tuner differences consecutive samples itself.
type Sample struct {
	// CodecSrcBytes and CodecEncBytes are the key bytes handed to the codec
	// and the bytes it produced for them.
	CodecSrcBytes, CodecEncBytes int64
	// ShardOps[i] is the number of point and range operations shard i served.
	ShardOps []int64
	// MergeBehind is how many shards sit past their merge trigger right now.
	MergeBehind int
}

// Targets are the owner's side of the loop: where a tick's inputs come from
// and the reconfiguration entry points its verdicts go to. A nil action
// disables the corresponding detector's action (the detector still tracks its
// gauges); a nil Sample reads as an idle index.
type Targets struct {
	// Sample returns the current detector inputs, from handles the owner
	// resolved when it was built (e.g. sharded.Index's counters). Called once
	// per tick, from the ticking goroutine; the tuner keeps the result until
	// the next tick, so each call returns a ShardOps of its own.
	Sample func() Sample
	// RetrainCodec rebuilds the key codec from the live key distribution
	// (e.g. sharded.Index.Retrain).
	RetrainCodec func() error
	// Rebalance recomputes the shard boundaries under the current codec
	// (e.g. sharded.Index.Rebalance).
	Rebalance func() error
	// NudgeMerges starts background merges on shards with dynamic debt
	// (e.g. sharded.Index.MergeAsync), returning how many were started.
	NudgeMerges func() int
}

// trigger is one detector's hysteresis state: fire only after `need`
// consecutive tripped ticks, then stay disarmed for `cooldown` ticks.
type trigger struct {
	trips    int
	cooldown int
}

// step advances the trigger by one tick and reports whether to fire.
func (t *trigger) step(tripped bool, need, cooldown int) bool {
	if t.cooldown > 0 {
		t.cooldown--
		return false
	}
	if !tripped {
		t.trips = 0
		return false
	}
	t.trips++
	if t.trips < need {
		return false
	}
	t.trips = 0
	t.cooldown = cooldown
	return true
}

// Tuner samples one index and drives one set of targets. Create with New;
// Start launches the background loop, Tick can also be called directly (the
// tests do) — ticks serialize on an internal mutex either way.
type Tuner struct {
	cfg     Config
	fr      *obs.FlightRecorder
	targets Targets

	// mu guards the detector state below; held for the whole of Tick, so a
	// manual Tick and the background loop never interleave mid-detector.
	mu          sync.Mutex
	last        Sample // the previous tick's
	cprBaseline float64
	behindRun   int
	trigRetrain trigger
	trigRebal   trigger

	ticks      *obs.Counter
	retrains   *obs.Counter
	rebalances *obs.Counter
	nudges     *obs.Counter
	errors     *obs.Counter

	gWindow *obs.Gauge
	gBase   *obs.Gauge
	gSkew   *obs.Gauge
	gBehind *obs.Gauge

	startMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// New builds a tuner whose own "tune." metrics and flight events land in reg
// (nil for none); what it watches comes from targets.Sample. It does not
// start the background loop — call Start, or drive Tick directly.
func New(cfg Config, reg *obs.Registry, targets Targets) *Tuner {
	return &Tuner{
		cfg:        cfg.withDefaults(),
		fr:         reg.FlightRecorder(),
		targets:    targets,
		ticks:      reg.Counter("tune.ticks"),
		retrains:   reg.Counter("tune.retrains"),
		rebalances: reg.Counter("tune.rebalances"),
		nudges:     reg.Counter("tune.merge_nudges"),
		errors:     reg.Counter("tune.errors"),
		gWindow:    reg.Gauge("tune.cpr_window"),
		gBase:      reg.Gauge("tune.cpr_baseline"),
		gSkew:      reg.Gauge("tune.skew"),
		gBehind:    reg.Gauge("tune.merge_behind_shards"),
	}
}

// Start launches the background tick loop. Idempotent.
func (t *Tuner) Start() {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	if t.stop != nil {
		return
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go t.run(t.stop, t.done)
}

// Stop terminates the background loop and waits for the in-flight tick, if
// any, to finish. Idempotent; a never-started tuner stops trivially.
func (t *Tuner) Stop() {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	if t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.stop, t.done = nil, nil
}

func (t *Tuner) run(stop, done chan struct{}) {
	defer close(done)
	tk := time.NewTicker(t.cfg.Interval)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
			t.Tick()
		}
	}
}

// Tick runs one detection round: take a sample, advance every detector, fire
// the armed ones. Exported so tests (and callers without a background loop)
// can drive detection deterministically.
func (t *Tuner) Tick() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks.Inc()
	var sm Sample
	if t.targets.Sample != nil {
		sm = t.targets.Sample()
	}
	t.tickCPR(sm)
	t.tickSkew(sm)
	t.tickMerges(sm.MergeBehind)
	t.last = sm
}

// tickCPR tracks the windowed compression ratio and fires a codec retrain
// when it decays below CPRDecay of the post-retrain baseline.
func (t *Tuner) tickCPR(sm Sample) {
	dsrc, denc := sm.CodecSrcBytes-t.last.CodecSrcBytes, sm.CodecEncBytes-t.last.CodecEncBytes
	tripped := false
	if denc >= t.cfg.CPRMinBytes {
		window := float64(dsrc) / float64(denc)
		t.gWindow.Set(window)
		if window > t.cprBaseline {
			t.cprBaseline = window
		}
		t.gBase.Set(t.cprBaseline)
		tripped = window < t.cprBaseline*t.cfg.CPRDecay
	}
	if !t.trigRetrain.step(tripped, t.cfg.Trips, t.cfg.Cooldown) {
		return
	}
	if t.targets.RetrainCodec == nil {
		return
	}
	if err := t.targets.RetrainCodec(); err != nil {
		t.fail("retrain", err)
		return
	}
	t.retrains.Inc()
	t.fr.Record("tune.retrain",
		obs.Str("why", "cpr_decay"),
		obs.I64("window_pct", int64(t.gWindow.Load()*100)),
		obs.I64("baseline_pct", int64(t.cprBaseline*100)))
	// The retrain rebuilt the dictionary for the live distribution; the old
	// baseline belongs to the old dictionary. Reset it so the next windows
	// establish a fresh post-retrain baseline instead of re-tripping.
	t.cprBaseline = 0
}

// tickSkew tracks per-shard op-count deltas and fires a rebalance when one
// shard runs hotter than SkewRatio times its fair share.
func (t *Tuner) tickSkew(sm Sample) {
	shards := len(sm.ShardOps)
	var total, max int64
	for i, ops := range sm.ShardOps {
		d := ops
		if i < len(t.last.ShardOps) {
			d -= t.last.ShardOps[i]
		}
		total += d
		if d > max {
			max = d
		}
	}
	tripped := false
	if shards > 1 && total >= t.cfg.SkewMinOps {
		skew := float64(max) * float64(shards) / float64(total)
		t.gSkew.Set(skew)
		tripped = skew >= t.cfg.SkewRatio
	}
	if !t.trigRebal.step(tripped, t.cfg.Trips, t.cfg.Cooldown) {
		return
	}
	if t.targets.Rebalance == nil {
		return
	}
	if err := t.targets.Rebalance(); err != nil {
		t.fail("rebalance", err)
		return
	}
	t.rebalances.Inc()
	t.fr.Record("tune.rebalance",
		obs.Str("why", "shard_skew"),
		obs.I64("skew_pct", int64(t.gSkew.Load()*100)),
		obs.I64("shards", int64(shards)))
}

// tickMerges counts merge-behind shards and nudges background merges after a
// sustained run of debt.
func (t *Tuner) tickMerges(behind int) {
	t.gBehind.Set(float64(behind))
	if behind == 0 {
		t.behindRun = 0
		return
	}
	t.behindRun++
	if t.behindRun < t.cfg.MergeBehindTicks || t.targets.NudgeMerges == nil {
		return
	}
	t.behindRun = 0
	started := t.targets.NudgeMerges()
	if started > 0 {
		t.nudges.Inc()
		t.fr.Record("tune.nudge",
			obs.I64("behind", int64(behind)), obs.I64("started", int64(started)))
	}
}

func (t *Tuner) fail(action string, err error) {
	t.errors.Inc()
	t.fr.Record("tune.error", obs.Str("action", action), obs.Str("err", err.Error()))
}
