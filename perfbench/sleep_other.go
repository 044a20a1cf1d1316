//go:build !linux

package main

import "time"

// sleeper falls back to the runtime's timers off Linux.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (*sleeper) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (*sleeper) close() {}
