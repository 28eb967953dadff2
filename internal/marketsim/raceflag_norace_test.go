//go:build !race

package marketsim

const raceEnabled = false
