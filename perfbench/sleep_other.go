//go:build !linux

package main

import "time"

// dueTimer wakes the open-loop dispatcher at due times.
type dueTimer struct{}

func newDueTimer() (*dueTimer, error) { return &dueTimer{}, nil }

// sleep blocks for d.
func (*dueTimer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (*dueTimer) close() {}
