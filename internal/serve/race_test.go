//go:build race

package serve

// raceEnabled is set under the race detector, which makes sync.Pool
// drop items at random: allocation counts of code that pools (fmt,
// encoding/json) then vary from run to run.
const raceEnabled = true
