package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// fast returns options small enough for unit tests while keeping the
// qualitative shapes.
func fast() Options {
	return Options{Warmup: time.Second, Measure: 2 * time.Second, Seed: 1}
}

func TestResultTableAndValue(t *testing.T) {
	r := Result{
		ID: "x", Title: "T", XLabel: "a", YLabel: "b",
		Series: []string{"s1", "s2"},
		Rows:   []Row{{X: "r1", Values: []float64{1, 2}}, {X: "r2", Values: []float64{3, 4}}},
	}
	tab := r.Table()
	for _, want := range []string{"x — T", "s1", "s2", "r1", "r2", "3.00"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	// Labels of 16 characters or more must still be separated by
	// whitespace from their neighbours.
	long := Result{
		ID: "y", Title: "T", XLabel: "streams per disk xx1", YLabel: "b",
		Series: []string{"D=1 N=128 R=512K s01", "D=1 N=128 R=512K s02"},
		Rows:   []Row{{X: "a twenty char row xx", Values: []float64{1, 22}}},
	}
	lines := strings.Split(long.Table(), "\n")
	if got, want := strings.Fields(lines[2]), []string{"streams", "per", "disk", "xx1",
		"D=1", "N=128", "R=512K", "s01", "D=1", "N=128", "R=512K", "s02"}; !slices.Equal(got, want) {
		t.Errorf("header fields = %q, want %q", got, want)
	}
	if got, want := strings.Fields(lines[3]), []string{"a", "twenty", "char", "row", "xx", "1.00", "22.00"}; !slices.Equal(got, want) {
		t.Errorf("row fields = %q, want %q", got, want)
	}
	if v, ok := r.Value("r2", "s2"); !ok || v != 4 {
		t.Errorf("Value(r2,s2) = %v,%v", v, ok)
	}
	if _, ok := r.Value("r2", "nope"); ok {
		t.Error("missing series should not resolve")
	}
	if _, ok := r.Value("nope", "s2"); ok {
		t.Error("missing row should not resolve")
	}
}

func TestRegistry(t *testing.T) {
	entries := List()
	if len(entries) < 13 {
		t.Fatalf("registry has %d entries, want >= 13 (every figure + ablations)", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].ID >= entries[i].ID {
			t.Error("List not sorted")
		}
	}
	for _, id := range []string{"fig01", "fig02", "fig04", "fig05", "fig06", "fig07",
		"fig08", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"} {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%s): %v", id, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestPlacement(t *testing.T) {
	p := PlacePerDisk(2, 3, 3000000)
	if len(p) != 6 {
		t.Fatalf("len = %d", len(p))
	}
	if p[0].Disk != 0 || p[3].Disk != 1 {
		t.Error("disk assignment wrong")
	}
	if p[1].Start%512 != 0 {
		t.Error("unaligned start")
	}
	q := PlaceTotal(3, 7, 3000000)
	if len(q) != 7 {
		t.Fatalf("len = %d", len(q))
	}
	disks := map[int]int{}
	for _, pl := range q {
		disks[pl.Disk]++
	}
	if disks[0] != 3 || disks[1] != 2 || disks[2] != 2 {
		t.Errorf("round-robin spread wrong: %v", disks)
	}
}

func TestFig04Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := Fig04(fast())
	if err != nil {
		t.Fatal(err)
	}
	// One stream beats 30 streams by >= 4x at 64K (the paper's
	// collapse).
	one, _ := res.Value("64K", "1 streams")
	many, ok := res.Value("64K", "30 streams")
	if !ok {
		t.Fatal("missing cells")
	}
	if one < 4*many {
		t.Errorf("collapse factor %0.1f (1 stream %.1f vs 30 streams %.1f), want >= 4", one/many, one, many)
	}
	// Throughput grows with request size for a single stream.
	small, _ := res.Value("8K", "1 streams")
	large, _ := res.Value("256K", "1 streams")
	if large <= small {
		t.Errorf("1-stream throughput should grow with request size: 8K=%.1f 256K=%.1f", small, large)
	}
}

func TestFig07ThrashShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := Fig07(fast())
	if err != nil {
		t.Fatal(err)
	}
	// With 8 segments of 1M, 10+ streams must collapse below the
	// many-small-segments configuration (prefetch reclaimed before
	// use).
	smallSeg, _ := res.Value("128x64K", "30 streams")
	bigSeg, ok := res.Value("8x1M", "30 streams")
	if !ok {
		t.Fatal("missing cells")
	}
	if bigSeg >= smallSeg {
		t.Errorf("8x1M (%.1f) should collapse below 128x64K (%.1f) at 30 streams", bigSeg, smallSeg)
	}
	// One stream still benefits from bigger segments.
	oneBig, _ := res.Value("8x1M", "1 streams")
	if oneBig < smallSeg {
		t.Errorf("1-stream 8x1M (%.1f) should stay high", oneBig)
	}
}

func TestFig08ControllerCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := Fig08(fast())
	if err != nil {
		t.Fatal(err)
	}
	// Moderate read-ahead rescues 60 streams; 4M read-ahead collapses
	// them toward zero (60 x 4M >> 128M cache).
	good, _ := res.Value("512K", "60 streams")
	bad, ok := res.Value("4M", "60 streams")
	if !ok {
		t.Fatal("missing cells")
	}
	if bad > good/4 {
		t.Errorf("4M/60-stream (%.1f) should collapse vs 512K (%.1f)", bad, good)
	}
	// One stream is unaffected by read-ahead size.
	one4M, _ := res.Value("4M", "1 streams")
	if one4M < 20 {
		t.Errorf("1-stream at 4M = %.1f, want high", one4M)
	}
}

func TestFig10Insensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := Fig10(Options{Warmup: 4 * time.Second, Measure: 6 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// R=8M at 100 streams beats the no-readahead baseline by >= 4x
	// (the paper's headline).
	sched, _ := res.Value("100", "R=8M")
	base, ok := res.Value("100", "no readahead")
	if !ok {
		t.Fatal("missing cells")
	}
	if sched < 4*base {
		t.Errorf("R=8M at 100 streams %.1f vs baseline %.1f, want >= 4x", sched, base)
	}
	// Insensitivity: 10 vs 100 streams within 2x at R=8M.
	few, _ := res.Value("10", "R=8M")
	if sched < few/2 {
		t.Errorf("sensitivity too high: 10 streams %.1f vs 100 streams %.1f", few, sched)
	}
	// Larger R dominates smaller R at 100 streams.
	small, _ := res.Value("100", "R=128K")
	if sched <= small {
		t.Errorf("R=8M (%.1f) should beat R=128K (%.1f)", sched, small)
	}
}

func TestFig13DispatchSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := Fig13(fast())
	if err != nil {
		t.Fatal(err)
	}
	split, _ := res.Value("30", "D=#disks N=128")
	all, ok := res.Value("30", "D=S (from Fig12)")
	if !ok {
		t.Fatal("missing cells")
	}
	if split <= all {
		t.Errorf("small dispatch set (%.1f) should beat D=S (%.1f)", split, all)
	}
	// ~80% of the 450 MB/s controller ceiling.
	if split < 250 {
		t.Errorf("split throughput %.1f, want near 80%% of 450", split)
	}
}

func TestFig15LatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, err := Fig15(Options{Warmup: 3 * time.Second, Measure: 8 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Latency rises with stream count.
	one, _ := res.Value("1M", "S=1 M=64MB")
	hundred, ok := res.Value("1M", "S=100 M=64MB")
	if !ok {
		t.Fatal("missing cells")
	}
	if hundred <= one {
		t.Errorf("latency should grow with streams: S=1 %.2fms vs S=100 %.2fms", one, hundred)
	}
	// Larger read-ahead lowers latency at fixed streams/memory.
	small, _ := res.Value("256K", "S=100 M=256MB")
	large, _ := res.Value("8M", "S=100 M=256MB")
	if large >= small {
		t.Errorf("8M RA latency %.2fms should be below 256K RA %.2fms", large, small)
	}
}

func TestQuickOptions(t *testing.T) {
	q := Quick()
	if q.Warmup <= 0 || q.Measure <= 0 {
		t.Error("Quick options must set durations")
	}
	o := Options{}.withDefaults(3*time.Second, 4*time.Second)
	if o.Warmup != 3*time.Second || o.Measure != 4*time.Second {
		t.Error("withDefaults did not fill")
	}
	o2 := Options{Warmup: time.Second, Measure: time.Second}.withDefaults(9*time.Second, 9*time.Second)
	if o2.Warmup != time.Second || o2.Measure != time.Second {
		t.Error("withDefaults overrode explicit values")
	}
}

func TestResultWriteCSV(t *testing.T) {
	r := Result{
		ID: "x", XLabel: "size", Series: []string{"a", "b"},
		Rows: []Row{{X: "8K", Values: []float64{1.5, 2}}},
	}
	var buf strings.Builder
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "size,a,b\n8K,1.500,2.000\n"
	if got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}
