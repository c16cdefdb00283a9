//go:build race

package storage

// poisonFreed makes the buffer pool overwrite every page buffer it takes
// back with poisonByte (see pool.putBuf). The race-detector lane thereby
// fails any caller that keeps page bytes past releasePage: it decodes
// poison, or races the fault that reuses the buffer.
const poisonFreed = true
