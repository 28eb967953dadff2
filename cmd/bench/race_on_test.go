//go:build race

package main

// Under the race detector a one-second smoke window completes a few
// hundred requests, too few for a p99 or for the 1-in-256 reference
// sample; TestSmoke then checks only that nothing failed and nothing raced.
const raceDetector = true
