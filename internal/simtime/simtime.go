// Package simtime defines the time base shared by every component of the
// PES reproduction.
//
// The simulated clock is an integer count of microseconds since the start of
// a simulation run. Microsecond resolution is fine enough to express the
// paper's DVFS transition overhead (100 µs) and core-migration overhead
// (20 µs) exactly, while keeping all arithmetic in integers so that results
// are bit-reproducible across platforms.
package simtime

import "fmt"

// Time is an instant on the simulated clock, measured in microseconds since
// the beginning of the simulation run. The zero value is the start of the
// run.
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is a sentinel instant that is later than any instant produced during
// a simulation. It is used for "no deadline" and "not scheduled" markers.
const Never Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Micros returns the instant as a raw microsecond count.
func (t Time) Micros() int64 { return int64(t) }

// String renders the instant as a duration since the start of the run.
func (t Time) String() string { return Duration(t).String() }

// Micros returns the duration as a raw microsecond count.
func (d Duration) Micros() int64 { return int64(d) }

// Millis returns the duration in (possibly fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e3 }

// Seconds returns the duration in (possibly fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// String renders the duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Millisecond:
		return fmt.Sprintf("%dµs", int64(d))
	case d < Second:
		return fmt.Sprintf("%.3gms", d.Millis())
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// FromMillis converts a millisecond count into a Duration, rounding to the
// nearest microsecond.
func FromMillis(ms float64) Duration { return Duration(ms*1e3 + 0.5) }

// Max returns the later of two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
