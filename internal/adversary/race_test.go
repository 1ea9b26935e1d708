//go:build race

package adversary

func init() { raceEnabled = true }
