package oltp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"
)

// Workload drives an Engine with one of the three thesis benchmarks.
type Workload interface {
	// Load populates the initial database.
	Load(e *Engine)
	// Tx executes one transaction drawn from the benchmark mix.
	Tx(e *Engine, rng *rand.Rand)
}

// ---------------------------------------------------------------- TPC-C ---

// TPCC is a scaled-down TPC-C: warehouses, districts, customers, items, and
// the order/order-line/history insert path. NewOrder and Payment dominate,
// so ~88% of transactions modify the database as in the real benchmark.
type TPCC struct {
	Warehouses int
	Items      int
	orderSeq   uint64
}

// NewTPCC returns the benchmark at the thesis configuration scale factor
// (8 warehouses, 100k items) divided by scale.
func NewTPCC(warehouses, items int) *TPCC {
	return &TPCC{Warehouses: warehouses, Items: items}
}

func ck(parts ...uint64) []byte {
	out := make([]byte, 8*len(parts))
	for i, p := range parts {
		binary.BigEndian.PutUint64(out[i*8:], p)
	}
	return out
}

func payload(n int, tag byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag
	}
	return p
}

func (w *TPCC) Load(e *Engine) {
	warehouse := e.CreateTable("warehouse")
	district := e.CreateTable("district")
	customer := e.CreateTable("customer", "by_name")
	item := e.CreateTable("item")
	e.CreateTable("orders", "by_customer")
	e.CreateTable("orderline")
	e.CreateTable("history")
	stock := e.CreateTable("stock")

	for wid := 0; wid < w.Warehouses; wid++ {
		warehouse.Insert(ck(uint64(wid)), payload(88, 'w'), nil)
		for d := 0; d < 10; d++ {
			district.Insert(ck(uint64(wid), uint64(d)), payload(95, 'd'), nil)
			for c := 0; c < 300; c++ {
				key := ck(uint64(wid), uint64(d), uint64(c))
				customer.Insert(key, payload(250, 'c'), map[string][]byte{
					"by_name": []byte(fmt.Sprintf("name-%03d-%d-%d", c%100, wid, d)),
				})
			}
		}
	}
	for i := 0; i < w.Items; i++ {
		item.Insert(ck(uint64(i)), payload(70, 'i'), nil)
		for wid := 0; wid < w.Warehouses; wid++ {
			if i%10 == wid%10 { // sparse stock to keep load time modest
				stock.Insert(ck(uint64(wid), uint64(i)), payload(80, 's'), nil)
			}
		}
	}
}

func (w *TPCC) Tx(e *Engine, rng *rand.Rand) {
	wid := uint64(rng.Intn(w.Warehouses))
	did := uint64(rng.Intn(10))
	switch r := rng.Intn(100); {
	case r < 45: // NewOrder
		e.ExecuteTx(func() error {
			cid := uint64(rng.Intn(300))
			if _, ok := e.Table("customer").Get(ck(wid, did, cid)); !ok {
				return fmt.Errorf("missing customer")
			}
			oid := w.orderSeq
			w.orderSeq++
			e.Table("orders").Insert(ck(wid, did, oid), payload(30, 'o'), map[string][]byte{
				"by_customer": ck(wid, did, cid),
			})
			lines := 5 + rng.Intn(11)
			for l := 0; l < lines; l++ {
				iid := uint64(rng.Intn(w.Items))
				e.Table("item").Get(ck(iid))
				e.Table("orderline").Insert(ck(wid, did, oid, uint64(l)), payload(54, 'l'), nil)
			}
			return nil
		})
	case r < 88: // Payment
		e.ExecuteTx(func() error {
			cid := uint64(rng.Intn(300))
			e.Table("district").Update(ck(wid, did), payload(95, 'D'))
			e.Table("customer").Update(ck(wid, did, cid), payload(250, 'C'))
			e.Table("history").Insert(ck(wid, did, cid, w.orderSeq, uint64(rng.Uint32())), payload(46, 'h'), nil)
			return nil
		})
	case r < 92: // OrderStatus: read a customer's latest orders
		e.ExecuteTx(func() error {
			cid := uint64(rng.Intn(300))
			e.Table("orders").GetBySecondary("by_customer", ck(wid, did, cid))
			return nil
		})
	default: // StockLevel-ish: short scan over order lines
		e.ExecuteTx(func() error {
			n := 0
			e.Table("orderline").Scan(ck(wid, did), func(k, p []byte) bool {
				n++
				return n < 20
			})
			return nil
		})
	}
}

// ---------------------------------------------------------------- Voter ---

// Voter is the phone-based election benchmark: tiny contestant table, an
// insert-only votes table, and a per-phone vote-count limit enforced via a
// secondary index.
type Voter struct {
	Contestants int
	MaxVotes    int
	Phones      int
	voteSeq     uint64
}

// NewVoter returns the benchmark.
func NewVoter(phones int) *Voter {
	return &Voter{Contestants: 6, MaxVotes: 10, Phones: phones}
}

func (w *Voter) Load(e *Engine) {
	contestants := e.CreateTable("contestants")
	e.CreateTable("votes", "by_phone")
	e.CreateTable("area_code_state")
	for c := 0; c < w.Contestants; c++ {
		contestants.Insert(ck(uint64(c)), payload(40, 'c'), nil)
	}
	acs := e.Table("area_code_state")
	for a := 0; a < 300; a++ {
		acs.Insert(ck(uint64(a)), payload(10, 'a'), nil)
	}
}

func (w *Voter) Tx(e *Engine, rng *rand.Rand) {
	e.ExecuteTx(func() error {
		phone := uint64(rng.Intn(w.Phones))
		contestant := uint64(rng.Intn(w.Contestants))
		votes := e.Table("votes")
		if votes.CountBySecondary("by_phone", ck(phone)) >= w.MaxVotes {
			return fmt.Errorf("vote limit")
		}
		e.Table("area_code_state").Get(ck(phone % 300))
		id := w.voteSeq
		w.voteSeq++
		votes.Insert(ck(id), append(ck(phone, contestant), payload(16, 'v')...), map[string][]byte{
			"by_phone": ck(phone),
		})
		return nil
	})
}

// -------------------------------------------------------------- Articles ---

// Articles models an online news site: articles with comments, read-heavy
// with occasional submissions.
type Articles struct {
	InitialArticles int
	articleSeq      uint64
	commentSeq      uint64
	userSeq         uint64
}

// NewArticles returns the benchmark.
func NewArticles(initial int) *Articles {
	return &Articles{InitialArticles: initial}
}

func (w *Articles) Load(e *Engine) {
	articles := e.CreateTable("articles")
	comments := e.CreateTable("comments", "by_article")
	users := e.CreateTable("users", "by_email")
	rng := rand.New(rand.NewSource(1))
	for u := 0; u < w.InitialArticles/4+1; u++ {
		users.Insert(ck(w.userSeq), payload(100, 'u'), map[string][]byte{
			"by_email": []byte(fmt.Sprintf("user%d@example.com", w.userSeq)),
		})
		w.userSeq++
	}
	for a := 0; a < w.InitialArticles; a++ {
		articles.Insert(ck(w.articleSeq), payload(500, 'a'), nil)
		for c := 0; c < rng.Intn(5); c++ {
			comments.Insert(ck(w.commentSeq), payload(120, 'c'), map[string][]byte{
				"by_article": ck(w.articleSeq),
			})
			w.commentSeq++
		}
		w.articleSeq++
	}
}

func (w *Articles) Tx(e *Engine, rng *rand.Rand) {
	switch r := rng.Intn(100); {
	case r < 70: // read an article and its comments
		e.ExecuteTx(func() error {
			aid := uint64(rng.Intn(int(w.articleSeq)))
			e.Table("articles").Get(ck(aid))
			e.Table("comments").GetBySecondary("by_article", ck(aid))
			return nil
		})
	case r < 90: // post a comment
		e.ExecuteTx(func() error {
			aid := uint64(rng.Intn(int(w.articleSeq)))
			e.Table("comments").Insert(ck(w.commentSeq), payload(120, 'c'), map[string][]byte{
				"by_article": ck(aid),
			})
			w.commentSeq++
			return nil
		})
	case r < 97: // submit an article
		e.ExecuteTx(func() error {
			e.Table("articles").Insert(ck(w.articleSeq), payload(500, 'a'), nil)
			w.articleSeq++
			return nil
		})
	default: // register a user
		e.ExecuteTx(func() error {
			e.Table("users").Insert(ck(w.userSeq), payload(100, 'u'), map[string][]byte{
				"by_email": []byte(fmt.Sprintf("user%d@example.com", w.userSeq)),
			})
			w.userSeq++
			return nil
		})
	}
}

// RunBenchmark loads the workload and executes txCount transactions,
// returning transactions per second and the final memory breakdown, plus
// per-transaction latencies when latencies is non-nil.
func RunBenchmark(w Workload, cfg Config, txCount int, seed int64) (float64, Memory, *Engine) {
	e := New(cfg)
	w.Load(e)
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for i := 0; i < txCount; i++ {
		w.Tx(e, rng)
	}
	elapsed := time.Since(start).Seconds()
	tps := float64(txCount) / elapsed
	return tps, e.MemoryUsage(), e
}
