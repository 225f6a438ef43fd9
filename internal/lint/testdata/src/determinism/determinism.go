// Fixture for the determinism analyzer, analyzed as the designated
// package repro/internal/tasks.
package fixture

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

func rangesOverMap(m map[string]int) int {
	sum := 0
	for _, v := range m { // want "range over a map iterates in nondeterministic order"
		sum += v
	}
	for i := 0; i < 4; i++ { // clean: index iteration
		sum += i
	}
	keys := []string{"a", "b"}
	for _, k := range keys { // clean: slice iteration
		sum += m[k]
	}
	return sum
}

//atm:allow maprange -- fixture: order folded through a commutative sum
func allowedMapRange(m map[string]int) int {
	sum := 0
	for _, v := range m { // no diagnostic: function-scoped allow
		sum += v
	}
	return sum
}

func usesGlobalRand() int {
	return rand.Intn(3) // want "math/rand is globally seeded"
}

func readsWallClock() time.Time {
	d := 2 * time.Second // clean: Duration arithmetic is not a clock read
	_ = d
	return time.Now() // want "reads the host wall clock"
}

func spawnsGoroutine(ch chan int) {
	go func() { // want "raw go statement outside internal/parexec"
		ch <- 1
	}()
}

func locksMutex(mu *sync.Mutex) { // want "sync.Mutex outside internal/parexec"
	mu.Lock() // clean: the type reference is flagged, not each method call
	mu.Unlock()
}

type holder struct {
	mu sync.Mutex // want "sync.Mutex outside internal/parexec"
}

var pool sync.Pool // want "sync.Pool outside internal/parexec"

func atomicAdd(p *int64) {
	atomic.AddInt64(p, 1) // want "sync/atomic.AddInt64 outside internal/parexec"
}

//atm:allow atomic -- fixture: order-independent sum
func allowedAtomic(p *int64) {
	atomic.AddInt64(p, 1) // no diagnostic: function-scoped allow
}

func multiSelect(a, b chan int) int {
	select { // want "select with 2 comm cases picks pseudo-randomly"
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func singleSelect(a chan int) int {
	select { // clean: one comm case plus default
	case v := <-a:
		return v
	default:
		return 0
	}
}

func lineScopedAllow(m map[string]int) int {
	sum := 0
	//atm:allow maprange -- fixture: commutative fold on the next line
	for _, v := range m { // no diagnostic: line-scoped allow
		sum += v
	}
	return sum
}
