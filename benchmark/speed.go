package main

import "syscall"

// speedometer times a fixed piece of ordinary Go code between the program's
// timed intervals: how fast this machine is running scalar code right now.
// The host's speed drifts by tens of percent over minutes with no steal to
// show for it (README, "What the time metrics are"); the run's time metrics
// are divided by the run's reading, so that a run made in a slow quarter of
// an hour and one made in a fast one report the same time for the same work.
//
// The kernel allocates nothing from the Go heap and calls nothing in the
// program, so nothing the program does — allocating more, collecting more,
// waiting — changes its reading, and a slower program is slower by as much
// after the division as before it.
type speedometer struct {
	passes int       // timed passes per sample; 0 turns the speedometer off
	passS  []float64 // seconds per pass of each sample, steal off
	sink   byte
}

const (
	// speedPasses timed passes make one sample of a real run: about a tenth
	// of a second, some twenty samples a run.
	speedPasses = 12
	// speedBuf is what one pass walks through: far more than the caches
	// hold, mapped for the sample and unmapped after it so that it is in no
	// repetition's peak_rss_mb.
	speedBuf = 16 << 20
	// nominalPassS is what a pass takes on the machine this was written on
	// in its quiet hours. It only fixes the unit: a time metric is in
	// seconds of a machine that does a pass in this long.
	nominalPassS = 7.2e-3
)

// pass writes 96-byte objects through the buffer a byte at a time and reads
// two bytes of each back: stores, adds, bounds checks and a stream of cache
// misses, the mix the program's own code is made of.
func (s *speedometer) pass(b []byte) {
	for off := 0; off+96 <= len(b); off += 96 {
		o := b[off : off+96]
		for k := range o {
			o[k] = byte(off + k)
		}
	}
	var x byte
	for off := 0; off+96 <= len(b); off += 96 {
		x += b[off] + b[off+64]
	}
	s.sink += x
}

// sample takes one reading.
func (s *speedometer) sample() error {
	if s.passes == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, speedBuf, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	s.pass(b) // untimed: faults the pages in
	l0 := startLap()
	for i := 0; i < s.passes; i++ {
		s.pass(b)
	}
	s.passS = append(s.passS, l0.stop().seconds()/float64(s.passes))
	return syscall.Munmap(b)
}

// factor is what the run's times are multiplied by: the nominal pass over
// the median pass of the run's samples; 1 with the speedometer off.
func (s *speedometer) factor() float64 {
	if len(s.passS) == 0 {
		return 1
	}
	return nominalPassS / median(s.passS)
}
