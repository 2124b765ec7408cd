package blockdev

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

// simScript builds a ScriptDevice over a simulated host.
func simScript(t *testing.T, rules []FaultRule) (*sim.Engine, *ScriptDevice) {
	t.Helper()
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewScriptDevice(inner, NewSimClock(eng), rules)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sd
}

func TestScriptDeviceValidation(t *testing.T) {
	eng := sim.NewEngine()
	host, _ := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
	inner, _ := NewSimDevice(host)
	clock := NewSimClock(eng)
	if _, err := NewScriptDevice(nil, clock, nil); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewScriptDevice(inner, nil, nil); err == nil {
		t.Error("nil clock accepted")
	}
	bad := []FaultRule{
		{Disk: -2, Mode: FaultError},
		{Mode: FaultError, MinLen: -1},
		{Mode: FaultError, From: 5, To: 3},
		{Mode: FaultError, From: -1},
		{Mode: FaultError, Every: -2},
		{Mode: FaultDelay},
		{Mode: FaultError, Delay: time.Second},
	}
	for i, r := range bad {
		if _, err := NewScriptDevice(inner, clock, []FaultRule{r}); err == nil {
			t.Errorf("rule %d (%+v) accepted", i, r)
		}
		sd, _ := NewScriptDevice(inner, clock, nil)
		if err := sd.SetRules([]FaultRule{r}); err == nil {
			t.Errorf("SetRules accepted rule %d (%+v)", i, r)
		}
	}
}

func TestScriptErrorWindowAndEvery(t *testing.T) {
	// Reads 3..8 on disk 0 fault, but only every 2nd (3, 5, 7).
	eng, sd := simScript(t, []FaultRule{
		{Disk: 0, Mode: FaultError, From: 3, To: 9, Every: 2},
	})
	var failed []int
	for i := 1; i <= 10; i++ {
		i := i
		if err := sd.ReadAt(0, int64(i)*4096, 4096, func(_ []byte, err error) {
			if err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Errorf("read %d: err = %v, want ErrInjected", i, err)
				}
				failed = append(failed, i)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(failed) != "[3 5 7]" {
		t.Errorf("failed reads = %v, want [3 5 7]", failed)
	}
	if sd.Faults() != 3 {
		t.Errorf("Faults = %d", sd.Faults())
	}
}

func TestScriptPerDiskCounters(t *testing.T) {
	// Disk 1's first read faults; disk 0 traffic must not advance disk
	// 1's index.
	mem, err := NewMemDevice(2, 1<<20, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewScriptDevice(mem, NewSimClock(sim.NewEngine()), []FaultRule{
		{Disk: 1, Mode: FaultError, From: 1, To: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sd.ReadAt(0, int64(i)*4096, 4096, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("disk 0 read %d failed: %v", i, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	gotErr := false
	if err := sd.ReadAt(1, 0, 4096, func(_ []byte, err error) {
		gotErr = err != nil
	}); err != nil {
		t.Fatal(err)
	}
	if !gotErr {
		t.Error("disk 1 first read did not fault")
	}
}

func TestScriptPersistentClass(t *testing.T) {
	eng, sd := simScript(t, []FaultRule{
		{Disk: -1, Mode: FaultError, Persistent: true},
	})
	var got error
	if err := sd.ReadAt(0, 0, 4096, func(_ []byte, err error) { got = err }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ErrInjectedPersistent) {
		t.Errorf("err = %v, want ErrInjectedPersistent", got)
	}
	if IsTransient(got) {
		t.Error("persistent fault classified transient")
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrInjected, true},
		{fmt.Errorf("wrapped: %w", ErrInjected), true},
		{ErrInjectedPersistent, false},
		{ErrBadRequest, false},
		{errors.New("mystery"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestScriptHangAndRelease(t *testing.T) {
	eng, sd := simScript(t, []FaultRule{
		{Disk: 0, Mode: FaultHang},
	})
	completed := false
	if err := sd.ReadAt(0, 0, 4096, func([]byte, error) { completed = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatal("hung read completed")
	}
	if sd.Hung() != 1 {
		t.Fatalf("Hung = %d", sd.Hung())
	}

	var got error
	sentinel := errors.New("released")
	sd.hung[0].done = func(_ []byte, err error) { got = err }
	if n := sd.ReleaseHung(sentinel); n != 1 {
		t.Fatalf("ReleaseHung = %d", n)
	}
	if got != sentinel {
		t.Errorf("released err = %v", got)
	}
	if sd.Hung() != 0 {
		t.Errorf("Hung = %d after release", sd.Hung())
	}
}

func TestScriptHangReleaseThroughInner(t *testing.T) {
	// ReleaseHung(nil) reissues the held reads on the inner device.
	eng, sd := simScript(t, []FaultRule{
		{Disk: 0, Mode: FaultHang, From: 1, To: 2},
	})
	var done bool
	if err := sd.ReadAt(0, 0, 4096, func(_ []byte, err error) {
		if err != nil {
			t.Errorf("released read failed: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	sd.ReleaseHung(nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("released read never completed")
	}
}

func TestScriptDelaySpike(t *testing.T) {
	const spike = 250 * time.Millisecond
	eng, sd := simScript(t, []FaultRule{
		{Disk: 0, Mode: FaultDelay, Delay: spike, From: 2, To: 3},
	})
	clock := NewSimClock(eng)
	var fast, slow time.Duration
	if err := sd.ReadAt(0, 0, 4096, func([]byte, error) { fast = clock.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sd.ReadAt(0, 4096, 4096, func([]byte, error) { slow = clock.Now() - fast }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if slow < spike {
		t.Errorf("spiked read took %v, want >= %v", slow, spike)
	}
}

func TestScriptFirstMatchWins(t *testing.T) {
	// A hang rule shadowed by an earlier error rule never triggers.
	eng, sd := simScript(t, []FaultRule{
		{Disk: 0, Mode: FaultError, From: 1, To: 2},
		{Disk: 0, Mode: FaultHang, From: 1, To: 2},
	})
	var got error
	completed := false
	if err := sd.ReadAt(0, 0, 4096, func(_ []byte, err error) { got, completed = err, true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed || !errors.Is(got, ErrInjected) {
		t.Errorf("completed=%v err=%v, want injected error", completed, got)
	}
	if sd.Hung() != 0 {
		t.Error("shadowed hang rule fired")
	}
}

func TestScriptMinLenTargetsLargeReads(t *testing.T) {
	// A minlen rule faults read-ahead-sized requests while small client
	// reads pass, and its index counts only the large reads.
	mem, err := NewMemDevice(1, 16<<20, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewScriptDevice(mem, NewSimClock(sim.NewEngine()), []FaultRule{
		{Disk: 0, Mode: FaultError, MinLen: 1 << 20, From: 2, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(length int64) error {
		var got error
		if err := sd.ReadAt(0, 0, length, func(_ []byte, err error) { got = err }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if err := read(4096); err != nil {
		t.Errorf("small read 1: %v", err)
	}
	if err := read(1 << 20); err != nil {
		t.Errorf("large read 1 (index 1, before window): %v", err)
	}
	if err := read(4096); err != nil {
		t.Errorf("small read 2: %v", err)
	}
	if err := read(1 << 20); !errors.Is(err, ErrInjected) {
		t.Errorf("large read 2 (index 2): err = %v, want ErrInjected", err)
	}
	if err := read(1 << 20); err != nil {
		t.Errorf("large read 3 (past window): %v", err)
	}
}

func TestScriptWritePassthrough(t *testing.T) {
	mem, err := NewMemDevice(1, 1<<20, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	sd, err := NewScriptDevice(mem, NewSimClock(eng), nil)
	if err != nil {
		t.Fatal(err)
	}
	wrote := false
	if err := sd.WriteAt(0, 0, 4096, nil, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		wrote = true
	}); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Error("write never completed")
	}

	// A read-only inner device rejects writes.
	_, roSD := simScript(t, nil)
	_ = roSD
}

func TestScriptAccountingPassthrough(t *testing.T) {
	eng, sd := simScript(t, nil)
	sd.SetLiveBuffers(3) // must not panic; sim host accepts it
	charged := false
	sd.ChargeRequest(4096, func() { charged = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !charged {
		t.Error("ChargeRequest completion never ran")
	}

	// Inner without CPU accounting: completion still arrives, via the
	// clock (never synchronously on the caller's stack).
	mem, _ := NewMemDevice(1, 1<<20, 0, false)
	eng2 := sim.NewEngine()
	sd2, err := NewScriptDevice(mem, NewSimClock(eng2), nil)
	if err != nil {
		t.Fatal(err)
	}
	charged2 := false
	sd2.ChargeRequest(4096, func() { charged2 = true })
	if charged2 {
		t.Error("fallback ChargeRequest ran synchronously")
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if !charged2 {
		t.Error("fallback ChargeRequest never ran")
	}
	sd2.SetLiveBuffers(1) // no-op fallback
}

func TestParseFaultScript(t *testing.T) {
	rules, err := ParseFaultScript("disk=0,mode=err,every=3; disk=1,mode=hang,from=10 ;mode=delay,delay=50ms,from=2,to=4")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	want := []FaultRule{
		{Disk: 0, Mode: FaultError, Every: 3},
		{Disk: 1, Mode: FaultHang, From: 10},
		{Disk: -1, Mode: FaultDelay, Delay: 50 * time.Millisecond, From: 2, To: 4},
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}

	if rules, err := ParseFaultScript("mode=err,class=persistent"); err != nil || !rules[0].Persistent {
		t.Errorf("persistent class: rules=%+v err=%v", rules, err)
	}
	if rules, err := ParseFaultScript("mode=hang,minlen=1048576"); err != nil || rules[0].MinLen != 1<<20 {
		t.Errorf("minlen: rules=%+v err=%v", rules, err)
	}

	bad := []string{
		"",
		"disk=0",                  // no mode
		"mode=explode",            // unknown mode
		"mode=err,disk=x",         // bad int
		"mode=delay,delay=fast",   // bad duration
		"mode=err,class=flaky",    // unknown class
		"mode=err,color=red",      // unknown key
		"mode=err,from=9,to=3",    // inverted window
		"mode=hang;mode=err,oops", // second rule malformed
	}
	for _, s := range bad {
		if _, err := ParseFaultScript(s); err == nil {
			t.Errorf("ParseFaultScript(%q) accepted", s)
		}
	}
}
