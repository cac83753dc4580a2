package mpinet

import "hyperbal/internal/obs"

var (
	obsFrames = obs.Default().CounterVec("mpinet_frames_total", "dir")
	obsBytes  = obs.Default().CounterVec("mpinet_bytes_total", "dir")

	obsFramesTx = obsFrames.With("tx")
	obsFramesRx = obsFrames.With("rx")
	obsBytesTx  = obsBytes.With("tx")
	obsBytesRx  = obsBytes.With("rx")
)
