package frontdoor

import "sync"

// Group collapses concurrent duplicate work: while one call for a key is
// in flight, further Do calls for the same key wait for it and share its
// result instead of executing fn again. Unlike golang.org/x/sync's
// singleflight it carries a typed result and reports how many callers are
// attached to a flight (Pending). Every caller of one flight gets the same
// V, so a V holding references shares them: treat it as read-only, and
// never recycle what it references, since no caller can tell whether
// another still holds it. Only a leader whose flight nobody joined holds
// V alone, and Do tells it so.
//
// Results are never cached past the flight: the moment the leader
// finishes, the key is forgotten, so an error is shared only by callers
// that were already waiting (they would have hit the same failure) and
// never poisons later calls.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	wg      sync.WaitGroup
	waiters int
	val     V
	err     error
}

// Pending reports how many callers are attached to key's in-flight
// execution — the leader plus its waiters — or 0 when no flight is active.
// For tests and introspection; the answer can be stale by the time it is
// observed.
func (g *Group[K, V]) Pending(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, ok := g.m[key]
	if !ok {
		return 0
	}
	return f.waiters + 1
}

// Do executes fn for key, or waits for an in-flight execution of the same
// key and shares its result. shared reports whether v went to more than
// one caller: always for a waiter, and for the leader when any waiter
// joined its flight. The flight runs on the leader's goroutine (and
// therefore under the leader's context): a leader that gives up fails its
// waiters too, which is acceptable because the key is dropped immediately
// and the next caller simply retries fresh.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flight[V])
	}
	if f, ok := g.m[key]; ok {
		f.waiters++
		g.mu.Unlock()
		f.wg.Wait()
		return f.val, true, f.err
	}
	f := &flight[V]{}
	f.wg.Add(1)
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.m, key) // no new waiters can join past this point
	joined := f.waiters > 0
	g.mu.Unlock()
	f.wg.Done()
	return f.val, joined, f.err
}
