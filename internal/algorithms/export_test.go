package algorithms

// SetHoodEpoch sets the epoch of m's last Mark, so a test can reach the
// wrap without four billion Mark calls.
func SetHoodEpoch(m *HoodMarks, epoch uint32) { m.epoch = epoch }
