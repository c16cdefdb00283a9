//go:build !race

package storage

// poisonFreed is off outside race-detector builds; see poison_race.go.
const poisonFreed = false
