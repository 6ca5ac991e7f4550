package server

import (
	"math"
	"testing"
	"time"
)

// TestParseBudget pins how the edge reads a budget header: whole positive
// milliseconds, saturating at the largest Duration instead of wrapping, and
// the default for anything else.
func TestParseBudget(t *testing.T) {
	const def = 7 * time.Second
	for _, c := range []struct {
		h    string
		want time.Duration
	}{
		{"250", 250 * time.Millisecond},
		{"9223372036854", 9223372036854 * time.Millisecond},
		{"9223372036855", math.MaxInt64},
		{"76480200929599801", math.MaxInt64},
		{"99999999999999999999", math.MaxInt64},
		{"0", def},
		{"-5", def},
		{"-99999999999999999999", def},
		{"1.5", def},
		{"soon", def},
	} {
		if got := parseBudget(c.h, def); got != c.want {
			t.Errorf("parseBudget(%q) = %v, want %v", c.h, got, c.want)
		}
	}
}
