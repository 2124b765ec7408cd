package units

import (
	"errors"
	"strconv"
	"testing"
	"testing/quick"
)

// formatSize renders bytes with the largest exact binary unit
// (1536 -> "1536", 2048 -> "2KiB", 3<<20 -> "3MiB"): the inverse the
// round-trip checks hold ParseSize to.
func formatSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return strconv.FormatInt(n>>30, 10) + "GiB"
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.FormatInt(n>>20, 10) + "MiB"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.FormatInt(n>>10, 10) + "KiB"
	default:
		return strconv.FormatInt(n, 10)
	}
}

func TestParseSize(t *testing.T) {
	tests := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"4096", 4096, true},
		{"0", 0, true},
		{"64KiB", 64 << 10, true},
		{"8MiB", 8 << 20, true},
		{"1GiB", 1 << 30, true},
		{"8M", 8 << 20, true},
		{"2G", 2 << 30, true},
		{"16K", 16 << 10, true},
		{" 64KiB ", 64 << 10, true},
		{"", 0, false},
		{"abc", 0, false},
		{"-5", 0, false},
		{"12XiB", 0, false},
		{"KiB", 0, false},
		{"G", 0, false},
		{"  ", 0, false},
		{"8 MiB", 8 << 20, true},
		{"\t1GiB\n", 1 << 30, true},
		// Overflow: 2^63-1 bytes is the ceiling; anything scaling past
		// it must error instead of wrapping negative.
		{"9223372036854775807", 1<<63 - 1, true},
		{"9223372036854775808", 0, false},
		{"9999999999G", 0, false},
		{"8796093022208G", 0, false}, // 2^43 * 2^30 == 2^73
		{"8589934592GiB", 0, false},
		{"9007199254740992M", 0, false},
		{"8388607G", (1<<23 - 1) << 30, true}, // largest whole-G value
	}
	for _, tt := range tests {
		got, err := ParseSize(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("ParseSize(%q) err = %v, want ok=%v", tt.in, err, tt.ok)
			continue
		}
		if err != nil {
			if !errors.Is(err, ErrBadSize) {
				t.Errorf("ParseSize(%q) err = %v, want ErrBadSize", tt.in, err)
			}
			continue
		}
		if got != tt.want {
			t.Errorf("ParseSize(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestFormatSize(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{0, "0"},
		{1536, "1536"},
		{2048, "2KiB"},
		{3 << 20, "3MiB"},
		{5 << 30, "5GiB"},
		{(1 << 20) + 1, "1048577"},
	}
	for _, tt := range tests {
		if got := formatSize(tt.in); got != tt.want {
			t.Errorf("formatSize(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(raw int64) bool {
		n := raw
		if n < 0 {
			n = -n
		}
		n %= 1 << 40
		got, err := ParseSize(formatSize(n))
		return err == nil && got == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
