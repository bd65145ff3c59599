// Fixture for the imports rule's wall-clock ban: the time functions that
// read or wait on the host clock are findings; virtual time (plain counters
// denominated in time.Duration) and time.Time's methods are the fixed forms.
package walltime

import "time"

func badNow() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func badElapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func badSleep() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

func badTimer() *time.Timer {
	return time.NewTimer(time.Second) // want `time\.NewTimer reads the wall clock`
}

func badFuncValue() func() time.Time {
	return time.Now // want `time\.Now reads the wall clock`
}

// goodVirtual is the fixed form: simulation time is a counter advanced by
// modeled service durations, never by the host clock.
type goodVirtual struct{ nowNS int64 }

func (c *goodVirtual) advance(d time.Duration) { c.nowNS += int64(d) }

func (c *goodVirtual) now() int64 { return c.nowNS }

// goodMethod stays silent: Time.After compares two given times, it does not
// read the clock as the package-level time.After does.
func goodMethod(a, b time.Time) bool { return a.After(b) }
