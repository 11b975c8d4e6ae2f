package server

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

// churnEngine emits progress events as fast as the manager accepts them
// until stop closes, then completes. It drives the SSE hub hard enough
// for the race detector to see subscribe/unsubscribe/broadcast overlap.
type churnEngine struct {
	stop chan struct{}
}

func (e *churnEngine) Prepare(kind string, req json.RawMessage) (Prepared, error) {
	return Prepared{Fingerprint: "churn-" + string(req), TotalRuns: 1 << 20}, nil
}

func (e *churnEngine) Execute(ctx context.Context, job ExecJob) (json.RawMessage, error) {
	for i := 1; ; i++ {
		select {
		case <-e.stop:
			return json.RawMessage(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
			job.OnProgress(Progress{Done: i, Total: 1 << 20})
			runtime.Gosched()
		}
	}
}

func (e *churnEngine) Schemes() any               { return nil }
func (e *churnEngine) Scenarios() any             { return nil }
func (e *churnEngine) Axes() any                  { return nil }
func (e *churnEngine) Traces(string) (any, error) { return nil, nil }

// submitRunning submits a job and waits until it leaves the queue.
func submitRunning(t *testing.T, m *Manager) JobView {
	t.Helper()
	v, err := m.Submit("run", json.RawMessage(`{"churn":true}`))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for v.State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", v.ID)
		}
		time.Sleep(time.Millisecond)
		v, _ = m.Get(v.ID)
	}
	return v
}

// TestHubSubscribeUnsubscribeChurn: many goroutines subscribing, reading
// a little and unsubscribing while the job broadcasts at full rate. Run
// under -race this exercises the hub's locking; the closing assertions
// check no subscriber leaks (gauge back to zero) and that a subscriber
// present at completion still observes the terminal state.
func TestHubSubscribeUnsubscribeChurn(t *testing.T) {
	stop := make(chan struct{})
	m, err := NewManager(t.TempDir(), &churnEngine{stop: stop}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v := submitRunning(t, m)

	before := mSubscribers.Value()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ch, unsub, ok := m.Subscribe(v.ID)
				if !ok {
					t.Errorf("Subscribe(%s) failed", v.ID)
					return
				}
				for j := 0; j < 3; j++ {
					select {
					case <-ch:
					case <-time.After(time.Second):
						t.Error("no event within 1s of subscribing")
						unsub()
						return
					}
				}
				unsub()
			}
		}()
	}
	wg.Wait()
	if after := mSubscribers.Value(); after != before {
		t.Errorf("subscriber gauge leaked: %d -> %d", before, after)
	}

	// A subscriber attached at completion time sees the terminal state.
	ch, unsub, ok := m.Subscribe(v.ID)
	if !ok {
		t.Fatal("final subscribe failed")
	}
	defer unsub()
	close(stop)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				t.Fatal("channel closed before a terminal state event")
			}
			if ev.Type == "state" {
				if jv, ok := ev.Payload.(JobView); ok && jv.State.Terminal() {
					return
				}
			}
		case <-deadline:
			t.Fatal("no terminal state event after stop")
		}
	}
}

// TestHubSlowConsumerBackpressure: a subscriber that never reads must not
// block the executing job — progress events are dropped on the floor —
// and the terminal state event must still land in its buffer (evicting
// older events if needed).
func TestHubSlowConsumerBackpressure(t *testing.T) {
	stop := make(chan struct{})
	m, err := NewManager(t.TempDir(), &churnEngine{stop: stop}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v := submitRunning(t, m)

	ch, unsub, ok := m.Subscribe(v.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer unsub()

	// Let the job overrun the 64-event buffer many times over. The job
	// making progress past the buffer size is itself the backpressure
	// assertion: a blocking broadcast would deadlock the worker here.
	dropsBefore := mEventsDropped.Value()
	deadline := time.Now().Add(5 * time.Second)
	for mEventsDropped.Value() < dropsBefore+256 {
		if time.Now().After(deadline) {
			t.Fatal("no events dropped for a full slow consumer; broadcast may be blocking")
		}
		runtime.Gosched()
	}

	close(stop)
	waitTerminal(t, m, v.ID)

	// Drain the never-read channel: the terminal state event must be in
	// there despite the overflow.
	sawTerminal := false
	for ev := range ch {
		if ev.Type == "state" {
			if jv, ok := ev.Payload.(JobView); ok && jv.State.Terminal() {
				sawTerminal = true
			}
		}
	}
	if !sawTerminal {
		t.Error("slow consumer never received the terminal state event")
	}
}

// TestHubProgressMonotonic: progress events observed by one subscriber
// are monotonically non-decreasing in Done even while other subscribers
// churn — drops are allowed, reordering is not.
func TestHubProgressMonotonic(t *testing.T) {
	stop := make(chan struct{})
	m, err := NewManager(t.TempDir(), &churnEngine{stop: stop}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v := submitRunning(t, m)

	ch, unsub, ok := m.Subscribe(v.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer unsub()

	// Churn other subscribers to stir the hub while we read.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 100; i++ {
			_, u, ok := m.Subscribe(v.ID)
			if ok {
				u()
			}
			runtime.Gosched()
		}
	}()

	last, seen := 0, 0
	for seen < 500 {
		select {
		case ev := <-ch:
			if ev.Type != "progress" {
				continue
			}
			p, ok := ev.Payload.(Progress)
			if !ok {
				t.Fatalf("progress payload is %T", ev.Payload)
			}
			if p.Done < last {
				t.Fatalf("progress went backwards: %d after %d", p.Done, last)
			}
			last = p.Done
			seen++
		case <-time.After(5 * time.Second):
			t.Fatal("progress stream stalled")
		}
	}
	<-churnDone
	close(stop)
	waitTerminal(t, m, v.ID)
}

// waitTerminal waits for a job to reach a terminal state and returns it.
func waitTerminal(t *testing.T, m *Manager, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, _ := m.Get(id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(time.Millisecond)
	}
}
