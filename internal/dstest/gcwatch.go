package dstest

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"
)

// GCWatch observes collection itself: Watch hangs a finalizer off an object,
// and Leaked reports the watched objects the garbage collector has not freed.
// The generation-leak tests of hybrid and sharded are built on it — nothing in
// those packages retires a superseded generation explicitly, so "it was
// collected" is the only statement there is to test, and a counter of retire
// calls would pass with a real leak.
//
// GCWatch holds addresses, never references, so it keeps nothing alive. Do not
// watch an object that is part of a pointer cycle (a hybrid.Index reaches
// itself through its sync.Cond): the runtime never finalizes those.
type GCWatch struct {
	mu   sync.Mutex
	live map[uintptr]string // address of each watched, unfinalized object → label
}

// Watch labels obj, which must be a non-nil pointer to the start of a heap
// allocation. Watching an object a second time before it is collected is a
// no-op, so callers may re-watch "whatever is current" after every step.
func (w *GCWatch) Watch(label string, obj any) {
	addr := reflect.ValueOf(obj).Pointer()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.live == nil {
		w.live = map[uintptr]string{}
	}
	if _, ok := w.live[addr]; ok {
		return
	}
	w.live[addr] = label
	runtime.SetFinalizer(obj, func(any) {
		w.mu.Lock()
		delete(w.live, addr)
		w.mu.Unlock()
	})
}

// Leaked runs garbage collections until every watched object outside keep has
// been finalized or patience runs out, and returns the sorted labels of those
// that have not. keep names what is supposed to be reachable still (the
// current generation and its stages): each element is a pointer to the object
// or, as a string, its label.
func (w *GCWatch) Leaked(patience time.Duration, keep ...any) []string {
	kept, keptLabel := map[uintptr]bool{}, map[string]bool{}
	for _, k := range keep {
		if label, ok := k.(string); ok {
			keptLabel[label] = true
		} else {
			kept[reflect.ValueOf(k).Pointer()] = true
		}
	}
	deadline := time.Now().Add(patience)
	for {
		// A finalizer runs one cycle after its object became unreachable, and
		// an object behind another finalized object one cycle later still.
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
		var leaked []string
		w.mu.Lock()
		for addr, label := range w.live {
			if !kept[addr] && !keptLabel[label] {
				leaked = append(leaked, label)
			}
		}
		w.mu.Unlock()
		if len(leaked) == 0 || time.Now().After(deadline) {
			sort.Strings(leaked)
			return leaked
		}
	}
}
