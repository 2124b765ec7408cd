// Package units parses and formats byte sizes for the CLIs and
// examples (binary units: KiB/MiB/GiB, plus bare K/M/G shorthand).
package units

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrBadSize reports an unparseable size string.
var ErrBadSize = errors.New("units: bad size")

// ParseSize converts strings like "64KiB", "8M", "1GiB", or "4096" to
// bytes.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("%w: %q", ErrBadSize, s)
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "GiB"):
		mult, t = 1<<30, strings.TrimSuffix(t, "GiB")
	case strings.HasSuffix(t, "MiB"):
		mult, t = 1<<20, strings.TrimSuffix(t, "MiB")
	case strings.HasSuffix(t, "KiB"):
		mult, t = 1<<10, strings.TrimSuffix(t, "KiB")
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, strings.TrimSuffix(t, "G")
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, strings.TrimSuffix(t, "K")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: %q", ErrBadSize, s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("%w: %q overflows int64", ErrBadSize, s)
	}
	return n * mult, nil
}
