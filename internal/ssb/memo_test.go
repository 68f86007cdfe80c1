package ssb

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memoWait bounds how long a memo test waits for a build that a serializing
// or deadlocking Memo would never let finish.
const memoWait = 5 * time.Second

// TestMemoBuildsOnce: concurrent callers of one key share a single build.
func TestMemoBuildsOnce(t *testing.T) {
	var d Data
	var builds atomic.Int64
	const callers = 8
	got := make([]any, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i] = d.Memo("k", func() any {
				builds.Add(1)
				time.Sleep(10 * time.Millisecond)
				return new(int)
			})
		}()
	}
	start.Done()
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
}

// TestMemoKeysBuildConcurrently: a build of one key does not hold up a
// build of another. Key a's build waits for key b's to start, which a
// data-set-wide build lock would never allow.
func TestMemoKeysBuildConcurrently(t *testing.T) {
	var d Data
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	overlapped := make(chan bool, 1)
	go func() {
		d.Memo("a", func() any {
			close(aStarted)
			select {
			case <-bStarted:
				overlapped <- true
			case <-time.After(memoWait):
				overlapped <- false
			}
			return nil
		})
	}()
	<-aStarted
	go d.Memo("b", func() any {
		close(bStarted)
		return nil
	})
	if !<-overlapped {
		t.Fatal("key b's build did not start while key a's was running")
	}
}

// TestMemoNestedKeys: a build may ask for another key.
func TestMemoNestedKeys(t *testing.T) {
	var d Data
	done := make(chan any, 1)
	go func() {
		done <- d.Memo("outer", func() any {
			return d.Memo("inner", func() any { return 7 }).(int) + 1
		})
	}()
	select {
	case v := <-done:
		if v != 8 {
			t.Fatalf("outer = %v, want 8", v)
		}
	case <-time.After(memoWait):
		t.Fatal("nested Memo call did not return")
	}
	if v := d.Memo("inner", func() any { return 0 }); v != 7 {
		t.Fatalf("inner = %v, want the memoized 7", v)
	}
}
