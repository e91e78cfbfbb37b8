//go:build race

package client

// raceEnabled is set under the race detector, which makes sync.Pool drop
// what is put back at random: an allocation pin that counts on a pooled
// scratch being reused cannot hold there.
const raceEnabled = true
