// Package mets (Memory-Efficient Trees) is the public API of this
// reproduction of "Memory-Efficient Search Trees for Database Management
// Systems" (Zhang, 2020/SIGMOD 2021). It re-exports the user-facing types:
//
//   - FST — the Fast Succinct Trie (Chapter 3): a static ordered key-value
//     index within ~10 bits/node of the information-theoretic minimum.
//   - SuRF — the Succinct Range Filter (Chapter 4): approximate membership
//     tests for points and ranges with one-sided errors.
//   - HybridIndex — the dual-stage architecture (Chapter 5) that makes the
//     compact static trees writable with amortized merge cost, available
//     over B+tree, ART, Skip List and Masstree substrates, and over an FST
//     static stage, which every shard of a ShardedIndex (NewSharded) keeps.
//   - HOPE — the High-speed Order-Preserving Encoder (Chapter 6): compress
//     keys before inserting them into any ordered structure.
//   - LSM — an in-memory log-structured engine with pluggable filters and
//     counted block I/O, the Chapter 4 example application.
//
// HybridIndex answers "failed?" and "behind?" once, through JournalErr and
// MergeBehind; ShardedIndex answers "failed?" through JournalErr (LSM through
// the sticky error its writes return). Everything else about them is a
// metric in the StatsRegistry they were given. cmd/mets-server reads
// JournalErr for every commit, /healthz and its server.healthy gauge;
// "behind?" is the per-shard merge_behind gauge.
//
// See the examples directory for runnable end-to-end usage and DESIGN.md for
// the system inventory and experiment map.
package mets

import (
	"mets/internal/fst"
	"mets/internal/hope"
	"mets/internal/hybrid"
	"mets/internal/index"
	"mets/internal/keycodec"
	"mets/internal/keys"
	"mets/internal/lsm"
	"mets/internal/obs"
	"mets/internal/sharded"
	"mets/internal/surf"
)

// Entry is one key-value pair (values are 64-bit "tuple pointers").
type Entry = index.Entry

// --- FST -------------------------------------------------------------------

// FST is the Fast Succinct Trie.
type FST = fst.Trie

// FSTConfig tunes trie construction.
type FSTConfig = fst.Config

// FSTIterator walks an FST in key order.
type FSTIterator = fst.Iterator

// NewFST builds a Fast Succinct Trie over sorted unique keys with parallel
// values, using the thesis defaults (complete keys, dense/sparse ratio 64).
func NewFST(ks [][]byte, values []uint64) (*FST, error) {
	return fst.Build(ks, values, fst.DefaultConfig())
}

// NewFSTWithConfig builds an FST with explicit tuning.
func NewFSTWithConfig(ks [][]byte, values []uint64, cfg FSTConfig) (*FST, error) {
	return fst.Build(ks, values, cfg)
}

// --- SuRF ------------------------------------------------------------------

// SuRF is the Succinct Range Filter.
type SuRF = surf.Filter

// SuRFConfig selects the filter variant.
type SuRFConfig = surf.Config

// SuRF variant constructors (Fig 4.1).
var (
	SuRFBase  = surf.BaseConfig
	SuRFHash  = surf.HashConfig
	SuRFReal  = surf.RealConfig
	SuRFMixed = surf.MixedConfig
)

// NewSuRF builds a filter over sorted unique keys.
func NewSuRF(ks [][]byte, cfg SuRFConfig) (*SuRF, error) {
	return surf.Build(ks, cfg)
}

// UnmarshalSuRF loads a filter serialized with SuRF.MarshalBinary (e.g.
// from an SSTable footer).
func UnmarshalSuRF(data []byte) (*SuRF, error) { return surf.Unmarshal(data) }

// UnmarshalFST loads a trie serialized with FST.MarshalBinary.
func UnmarshalFST(data []byte) (*FST, error) { return fst.UnmarshalTrie(data) }

// --- Hybrid index ----------------------------------------------------------

// HybridIndex is the dual-stage index of Chapter 5.
type HybridIndex = hybrid.Index

// HybridConfig tunes the merge trigger and auxiliary structures. Every
// hybrid index reads by loading an atomically published, immutable
// generation and resolving against it, so merges never block a reader and
// Scan callbacks may call back into the index; superseded generations are
// left to the garbage collector (see DESIGN.md "Concurrency model").
// EpochReads — the name is historical — only picks the dynamic stage: the
// lock-free skip-list memtable, which makes reads wait-free end to end;
// unset, the dynamic stage is the constructor's thesis structure behind a
// readers-writer lock of its own. HybridSecondary ignores it, and a
// ShardedIndex sets it, with BackgroundMerge, on every shard.
type HybridConfig = hybrid.Config

// Hybrid index constructors: the thesis' FST as the static stage (what every
// ShardedIndex shard runs), and the four Ch. 5 substrates.
var (
	NewHybridFST             = hybrid.NewFST
	NewHybridBTree           = hybrid.NewBTree
	NewHybridCompressedBTree = hybrid.NewCompressedBTree
	NewHybridART             = hybrid.NewART
	NewHybridSkipList        = hybrid.NewSkipList
	NewHybridMasstree        = hybrid.NewMasstree
	NewHybridSecondary       = hybrid.NewSecondary
	DefaultHybridConfig      = hybrid.DefaultConfig
)

// --- Range-sharded hybrid index --------------------------------------------

// ShardedIndex fans keys across N hybrid indexes over disjoint key ranges,
// each with its own writer mutex and merge schedule; scans re-merge in order.
type ShardedIndex = sharded.Index

// ShardedConfig selects the shard router and the per-shard hybrid tuning.
type ShardedConfig = sharded.Config

// ShardRouter maps keys to shards via sorted boundary keys.
type ShardRouter = sharded.Router

// The sharded constructor and routers. NewSharded builds one configuration:
// every shard keeps the skip-list memtable over an FST static stage and
// merges in the background, whatever ShardedConfig.Hybrid says about
// EpochReads and BackgroundMerge.
var (
	NewSharded       = sharded.New
	UniformRouter    = sharded.UniformRouter
	RouterFromSample = sharded.RouterFromSample
)

// --- HOPE ------------------------------------------------------------------

// KeyEncoder is a trained order-preserving key compressor.
type KeyEncoder = hope.Encoder

// HOPEScheme selects one of the six compression schemes.
type HOPEScheme = hope.Scheme

// The six schemes of Table 6.1.
const (
	HOPESingleChar  = hope.SingleChar
	HOPEDoubleChar  = hope.DoubleChar
	HOPEALM         = hope.ALM
	HOPE3Grams      = hope.ThreeGrams
	HOPE4Grams      = hope.FourGrams
	HOPEALMImproved = hope.ALMImproved
)

// TrainHOPE builds a key encoder from a sample of keys.
func TrainHOPE(sample [][]byte, scheme HOPEScheme, dictLimit int) (*KeyEncoder, error) {
	return hope.Train(sample, scheme, dictLimit)
}

// --- Key codec -------------------------------------------------------------

// KeyCodec is the key-compression boundary of the sharded index: a frozen,
// strictly order-preserving, invertible encoding of keys. Train one from a
// key sample (TrainKeyCodec), set it on ShardedConfig (field Codec), and the
// index stores keys in encoded space for its lifetime, translating at its
// API boundary — point and range operations keep raw-key semantics while key
// memory shrinks by the codec's compression ratio.
type KeyCodec = keycodec.Codec

// IdentityKeyCodec returns the no-op codec (keys stored raw).
func IdentityKeyCodec() KeyCodec { return keycodec.Identity() }

// TrainKeyCodec trains a HOPE-backed codec from a sample of keys. All
// schemes but HOPESingleChar require 0x00-free keys.
func TrainKeyCodec(sample [][]byte, scheme HOPEScheme, dictLimit int) (KeyCodec, error) {
	return keycodec.TrainHOPE(sample, scheme, dictLimit)
}

// UnmarshalKeyCodec reconstructs a codec from KeyCodec.MarshalBinary bytes
// (e.g. the dictionary a SuR2/FST2 payload embeds through SetKeyCodec).
func UnmarshalKeyCodec(data []byte) (KeyCodec, error) { return keycodec.Unmarshal(data) }

// --- LSM engine ------------------------------------------------------------

// LSM is the log-structured storage engine of the Chapter 4 application.
type LSM = lsm.DB

// LSMConfig tunes the engine.
type LSMConfig = lsm.Config

// OpenLSM creates an empty engine; use lsm filter builders via
// NewBloomSSTFilter / NewSuRFSSTFilter.
func OpenLSM(cfg LSMConfig) *LSM { return lsm.Open(cfg) }

// Per-SSTable filter builders.
var (
	NewBloomSSTFilter = lsm.BloomFilterBuilder
	NewSuRFSSTFilter  = lsm.SuRFFilterBuilder
)

// --- Observability ---------------------------------------------------------

// StatsRegistry is the metrics substrate (internal/obs): padded atomic
// counters and gauges, log-bucketed latency histograms, and the flight
// recorder's one bounded ring of lifecycle records. Pass one through
// HybridConfig.Obs / ShardedConfig.Obs / LSMConfig.Obs and read it back with
// Stats. A nil registry disables instrumentation at a single nil check per
// site.
type StatsRegistry = obs.Registry

// StatsSnapshot is a point-in-time copy of every metric in a registry,
// JSON-encodable (cmd/mets-server serves it over expvar at -debug-addr).
type StatsSnapshot = obs.Snapshot

// LatencyHistogram is a mergeable log2-bucketed latency histogram with
// p50/p95/p99 and an exact max.
type LatencyHistogram = obs.Histogram

// NewStatsRegistry creates an empty metrics registry.
func NewStatsRegistry() *StatsRegistry { return obs.NewRegistry() }

// Stats snapshots a registry (zero-value snapshot for nil).
func Stats(r *StatsRegistry) StatsSnapshot { return r.Snapshot() }

// WritePrometheus renders a snapshot in Prometheus text exposition format
// (cmd/mets-server serves it at -debug-addr/metrics).
var WritePrometheus = obs.WritePrometheus

// FlightRecorder is the always-on bounded ring of structured engine records:
// facts (WAL rotations and repairs, flush/compaction/merge commits, journal
// replays, generation swaps) and the finished spans that led to them (a
// merge's seal/build/swap durations), joined by FlightEvent.Span. Every
// registry carries one; a journaled index dumps it to <dir>/flightrec.json
// on recovery, on a sticky journal error, and on Close, so every crash
// leaves a postmortem artifact.
type FlightRecorder = obs.FlightRecorder

// FlightEvent is one record of the ring: an event, or a finished span.
type FlightEvent = obs.Event

// FlightDump is a parsed flightrec.json artifact.
type FlightDump = obs.FlightDump

// ParseFlightDump decodes and validates a flightrec.json postmortem.
var ParseFlightDump = obs.ParseFlightDump

// --- Key helpers -----------------------------------------------------------

// Uint64Key encodes an integer as an order-preserving 8-byte key.
func Uint64Key(v uint64) []byte { return keys.Uint64(v) }

// CompareKeys compares byte keys lexicographically.
func CompareKeys(a, b []byte) int { return keys.Compare(a, b) }

// SortKeys sorts and deduplicates keys in place.
func SortKeys(ks [][]byte) [][]byte { return keys.Dedup(ks) }
