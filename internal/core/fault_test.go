package core

import (
	"errors"
	"testing"

	"seqstream/internal/blockdev"
	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

// faultNode builds a node whose device fails every Nth read: the Nth,
// 2Nth, 3Nth, ... read of each disk completes with ErrInjected.
func faultNode(t *testing.T, every int64, cfg Config) (*testNode, *blockdev.ScriptDevice) {
	t.Helper()
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	simDev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	clock := blockdev.NewSimClock(eng)
	fdev, err := blockdev.NewScriptDevice(simDev, clock, []blockdev.FaultRule{
		{Disk: -1, Mode: blockdev.FaultError, From: every, Every: every},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(fdev, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &testNode{eng: eng, host: host, dev: simDev, clock: clock, server: srv}, fdev
}

func TestDirectReadErrorPropagates(t *testing.T) {
	n, fdev := faultNode(t, 1, DefaultConfig(64<<20, 1<<20))
	r := n.do(t, Request{Disk: 0, Offset: 0, Length: 4096})
	if !errors.Is(r.Err, blockdev.ErrInjected) {
		t.Errorf("err = %v, want ErrInjected", r.Err)
	}
	if fdev.Faults() == 0 {
		t.Error("no faults recorded")
	}
}

func TestFetchErrorFailsWaitersAndRecovers(t *testing.T) {
	// Fault every 5th read: detection reads and some fetches fail, but
	// every submitted request must complete exactly once and the node
	// must keep serving afterwards.
	n, fdev := faultNode(t, 5, DefaultConfig(64<<20, 1<<20))
	const req = 64 << 10
	completions := 0
	failures := 0
	for i := 0; i < 64; i++ {
		r := n.do(t, Request{Disk: 0, Offset: int64(i) * req, Length: req})
		completions++
		if r.Err != nil {
			failures++
		}
	}
	if completions != 64 {
		t.Fatalf("completions = %d", completions)
	}
	if failures == 0 {
		t.Error("expected some failures with fault injection on")
	}
	if failures == 64 {
		t.Error("every request failed; recovery broken")
	}

	// Stop faulting: the node must return to full health.
	if err := fdev.SetRules(nil); err != nil {
		t.Fatal(err)
	}
	healthy := 0
	for i := 64; i < 96; i++ {
		r := n.do(t, Request{Disk: 0, Offset: int64(i) * req, Length: req})
		if r.Err == nil {
			healthy++
		}
	}
	if healthy != 32 {
		t.Errorf("healthy completions after recovery = %d/32", healthy)
	}
	// No leaked memory from failed fetches.
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st := n.server.Stats(); st.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d after failures", st.MemoryInUse)
	}
}

func TestHeavyFaultsNeverWedgeDispatch(t *testing.T) {
	// Fault every 2nd read under many streams: the dispatch set must
	// keep cycling (failed fetches free their slots).
	n, _ := faultNode(t, 2, DefaultConfig(64<<20, 512<<10))
	const req = 64 << 10
	spacing := n.dev.Capacity(0) / 10
	spacing -= spacing % 512
	completed := 0
	for s := 0; s < 10; s++ {
		for i := 0; i < 8; i++ {
			n.do(t, Request{Disk: 0, Offset: int64(s)*spacing + int64(i)*req, Length: req})
			completed++
		}
	}
	if completed != 80 {
		t.Fatalf("completed = %d", completed)
	}
	if n.server.dispatched.Load() < 0 {
		t.Error("dispatch accounting corrupted")
	}
}
