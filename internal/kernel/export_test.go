package kernel

// NoisePos exposes the ring index of r, so the external tests can count
// the words each draw consumes.
func NoisePos(r *Noise) int { return r.pos % noiseLen }
