package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// Binary wire protocol of the balancerd API: messages framed as `magic
// "HBW" + version + message type` followed by varint-packed fields, with
// hypergraph and delta payloads embedded as internal/hypergraph binary
// frames. It is the only request codec: create, epoch and delta bodies
// must carry Content-Type application/x-hyperbal (anything else is 415).
// Responses are binary when Accept lists that media type, JSON otherwise.
// Error responses are always JSON (they are tiny, and a client that
// negotiated binary still needs errors it can decode before trusting the
// frame layer).
//
// Hypergraphs are validated and fingerprinted by hypergraph.BuildFromWire
// as they decode. See DESIGN.md §12 for the frame layout.

// ContentTypeBinary is the media type of the binary wire protocol.
const ContentTypeBinary = "application/x-hyperbal"

// binMagic prefixes every binary message; the fourth byte is the protocol
// version.
var binMagic = [4]byte{'H', 'B', 'W', 1}

// Message type discriminators (fifth header byte).
const (
	binMsgCreate byte = iota + 1
	binMsgEpoch
	binMsgDelta
	binMsgSessionResponse
	binMsgPartitionResponse
	binMsgSessionInfo
	// Replica-to-replica messages of the distributed serving tier: a
	// peer-cache lookup answer (GET /internal/cache/{key}) and a drain-time
	// session-state handoff (POST /internal/handoff).
	binMsgCacheResult
	binMsgHandoff
)

// Result frame flags.
const (
	binResCached byte = 1 << iota
	binResRebalanced
	binResWarm
)

// Epoch / delta request flags.
const (
	binReqOnlyIfUnbalanced byte = 1 << iota
	binReqWarm
)

func appendBinHeader(buf []byte, msgType byte) []byte {
	buf = append(buf, binMagic[:]...)
	return append(buf, msgType)
}

func readBinHeader(r *hypergraph.BinReader, want byte) error {
	hdr, err := r.Bytes(5)
	if err != nil {
		return fmt.Errorf("%w: missing message header", hypergraph.ErrTruncated)
	}
	if hdr[0] != binMagic[0] || hdr[1] != binMagic[1] || hdr[2] != binMagic[2] {
		return fmt.Errorf("%w: bad magic %q", hypergraph.ErrMalformed, hdr[:3])
	}
	if hdr[3] != binMagic[3] {
		return fmt.Errorf("%w: protocol version %d (want %d)", hypergraph.ErrMalformed, hdr[3], binMagic[3])
	}
	if hdr[4] != want {
		return fmt.Errorf("%w: message type %d (want %d)", hypergraph.ErrMalformed, hdr[4], want)
	}
	return nil
}

func binDone(r *hypergraph.BinReader) error {
	if r.Rem() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", hypergraph.ErrMalformed, r.Rem())
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(r *hypergraph.BinReader, limit int) (string, error) {
	n, err := r.Count(limit)
	if err != nil {
		return "", err
	}
	b, err := r.Bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func appendFloat64(buf []byte, f float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	return append(buf, b[:]...)
}

func readFloat64(r *hypergraph.BinReader) (float64, error) {
	b, err := r.Bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func appendWireConfig(buf []byte, cfg WireConfig) []byte {
	buf = binary.AppendVarint(buf, int64(cfg.K))
	buf = binary.AppendVarint(buf, cfg.Alpha)
	buf = appendFloat64(buf, cfg.Imbalance)
	buf = binary.AppendVarint(buf, cfg.Seed)
	buf = appendString(buf, cfg.Method)
	buf = binary.AppendVarint(buf, int64(cfg.MaxClique))
	buf = binary.AppendVarint(buf, int64(cfg.CoarsenTo))
	buf = binary.AppendVarint(buf, int64(cfg.InitialStarts))
	buf = binary.AppendVarint(buf, int64(cfg.RefinePasses))
	buf = binary.AppendVarint(buf, int64(cfg.Parallelism))
	return buf
}

func readWireConfig(r *hypergraph.BinReader) (WireConfig, error) {
	var cfg WireConfig
	read := func(dst *int) error {
		v, err := r.Varint()
		if err != nil {
			return err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("%w: config field %d out of range", hypergraph.ErrMalformed, v)
		}
		*dst = int(v)
		return nil
	}
	var err error
	if err = read(&cfg.K); err != nil {
		return cfg, err
	}
	if cfg.Alpha, err = r.Varint(); err != nil {
		return cfg, err
	}
	if cfg.Imbalance, err = readFloat64(r); err != nil {
		return cfg, err
	}
	if cfg.Seed, err = r.Varint(); err != nil {
		return cfg, err
	}
	if cfg.Method, err = readString(r, 128); err != nil {
		return cfg, err
	}
	if err = read(&cfg.MaxClique); err != nil {
		return cfg, err
	}
	if err = read(&cfg.CoarsenTo); err != nil {
		return cfg, err
	}
	if err = read(&cfg.InitialStarts); err != nil {
		return cfg, err
	}
	if err = read(&cfg.RefinePasses); err != nil {
		return cfg, err
	}
	if err = read(&cfg.Parallelism); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func appendWireResult(buf []byte, res WireResult) []byte {
	buf = binary.AppendVarint(buf, res.Epoch)
	buf = binary.AppendVarint(buf, int64(res.K))
	buf = hypergraph.AppendInt32s(buf, res.Parts)
	buf = binary.AppendVarint(buf, res.CommVolume)
	buf = binary.AppendVarint(buf, res.MigrationVolume)
	buf = binary.AppendVarint(buf, int64(res.Moved))
	buf = appendFloat64(buf, res.RepartMs)
	var flags byte
	if res.Cached {
		flags |= binResCached
	}
	if res.Rebalanced {
		flags |= binResRebalanced
	}
	if res.Warm {
		flags |= binResWarm
	}
	return append(buf, flags)
}

func readWireResult(r *hypergraph.BinReader) (WireResult, error) {
	var res WireResult
	var err error
	if res.Epoch, err = r.Varint(); err != nil {
		return res, err
	}
	k, err := r.Varint()
	if err != nil {
		return res, err
	}
	res.K = int(k)
	if res.Parts, err = hypergraph.DecodeInt32s(r, hypergraph.MaxWireVertices); err != nil {
		return res, err
	}
	if len(res.Parts) == 0 {
		res.Parts = nil
	}
	if res.CommVolume, err = r.Varint(); err != nil {
		return res, err
	}
	if res.MigrationVolume, err = r.Varint(); err != nil {
		return res, err
	}
	moved, err := r.Varint()
	if err != nil {
		return res, err
	}
	res.Moved = int(moved)
	if res.RepartMs, err = readFloat64(r); err != nil {
		return res, err
	}
	flags, err := r.Byte()
	if err != nil {
		return res, err
	}
	res.Cached = flags&binResCached != 0
	res.Rebalanced = flags&binResRebalanced != 0
	res.Warm = flags&binResWarm != 0
	return res, nil
}

// AppendCreateRequestBinary renders POST /v1/sessions in binary form,
// encoding the hypergraph straight from its CSR storage.
func AppendCreateRequestBinary(buf []byte, cfg WireConfig, h *hypergraph.Hypergraph) []byte {
	buf = appendBinHeader(buf, binMsgCreate)
	buf = appendWireConfig(buf, cfg)
	return h.AppendBinary(buf)
}

func decodeCreateRequestBinary(data []byte) (createRequest, error) {
	var req createRequest
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgCreate); err != nil {
		return req, err
	}
	var err error
	if req.Config, err = readWireConfig(r); err != nil {
		return req, err
	}
	if req.H, req.FP, err = hypergraph.DecodeBinary(r); err != nil {
		return req, err
	}
	return req, binDone(r)
}

// AppendEpochRequestBinary renders POST /v1/sessions/{id}/epochs in binary
// form: the epoch's drifted hypergraph, plus the inherited assignment when
// the vertex set changed. epoch, when positive, is the expected epoch
// number of this submission (current+1); a mismatch is rejected with 409
// so a retried submission cannot advance a session twice.
// onlyIfUnbalanced asks the server to first evaluate the session's
// rebalance trigger and return the unchanged distribution
// (rebalanced=false) if the drift is still within threshold.
func AppendEpochRequestBinary(buf []byte, h *hypergraph.Hypergraph, inherited []int32, epoch int64, onlyIfUnbalanced bool) []byte {
	buf = appendBinHeader(buf, binMsgEpoch)
	buf = h.AppendBinary(buf)
	return appendSubmissionTail(buf, inherited, epoch, onlyIfUnbalanced, binReqOnlyIfUnbalanced)
}

func decodeEpochRequestBinary(data []byte) (*submission, error) {
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgEpoch); err != nil {
		return nil, err
	}
	sub := &submission{}
	var err error
	if sub.H, sub.FP, err = hypergraph.DecodeBinary(r); err != nil {
		return nil, err
	}
	flags, err := readSubmissionTail(r, sub)
	if err != nil {
		return nil, err
	}
	sub.OnlyIfUnbalanced = flags&binReqOnlyIfUnbalanced != 0
	return sub, nil
}

// AppendDeltaRequestBinary renders PATCH /v1/sessions/{id}/epochs in
// binary form: the epoch's hypergraph as a delta against the session's
// last accepted hypergraph (d.Base must equal that fingerprint — a
// mismatch is rejected with 409 code "fingerprint_mismatch" carrying the
// server's base fingerprint, the client's signal to resubmit as a full
// epoch). inherited is optional for structural deltas: when absent the
// server derives it from the delta's vertex map. warm asks for a
// warm-started repartition restricted to the delta's dirty region.
func AppendDeltaRequestBinary(buf []byte, d *hypergraph.Delta, inherited []int32, epoch int64, warm bool) []byte {
	buf = appendBinHeader(buf, binMsgDelta)
	buf = d.AppendBinary(buf)
	return appendSubmissionTail(buf, inherited, epoch, warm, binReqWarm)
}

func decodeDeltaRequestBinary(data []byte) (*submission, error) {
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgDelta); err != nil {
		return nil, err
	}
	sub := &submission{}
	var err error
	if sub.Delta, err = hypergraph.DecodeDeltaBinary(r); err != nil {
		return nil, err
	}
	flags, err := readSubmissionTail(r, sub)
	if err != nil {
		return nil, err
	}
	sub.Warm = flags&binReqWarm != 0
	return sub, nil
}

// The epoch and delta request frames end on the same tail: `inherited,
// epoch, flags`. Each frame defines one flag bit; the other is ignored.
func appendSubmissionTail(buf []byte, inherited []int32, epoch int64, set bool, flag byte) []byte {
	buf = hypergraph.AppendInt32s(buf, inherited)
	buf = binary.AppendVarint(buf, epoch)
	if !set {
		flag = 0
	}
	return append(buf, flag)
}

// readSubmissionTail fills sub.Inherited and sub.Epoch, returns the flags
// byte for the caller to interpret, and requires the frame to end there.
func readSubmissionTail(r *hypergraph.BinReader, sub *submission) (flags byte, err error) {
	if sub.Inherited, err = hypergraph.DecodeInt32s(r, hypergraph.MaxWireVertices); err != nil {
		return 0, err
	}
	if len(sub.Inherited) == 0 {
		sub.Inherited = nil
	}
	if sub.Epoch, err = r.Varint(); err != nil {
		return 0, err
	}
	if flags, err = r.Byte(); err != nil {
		return 0, err
	}
	return flags, binDone(r)
}

// appendCacheResultBinary renders a peer-cache lookup answer: the cached
// repartition result for one cache key, enough for the asking replica to
// adopt it as if it had solved locally (parallelism invariance makes the
// adoption byte-identical).
func appendCacheResultBinary(buf []byte, res core.Result) []byte {
	buf = appendBinHeader(buf, binMsgCacheResult)
	buf = hypergraph.AppendInt32s(buf, res.Partition.Parts)
	buf = binary.AppendVarint(buf, int64(res.Partition.K))
	buf = binary.AppendVarint(buf, res.CommVolume)
	buf = binary.AppendVarint(buf, res.MigrationVolume)
	buf = binary.AppendVarint(buf, int64(res.Moved))
	// Provenance travels with the entry: the adopter republishes it into
	// its own cache, and later responses report the owner's warm-start flag
	// and solve time, not a zeroed one.
	buf = binary.AppendVarint(buf, int64(res.RepartTime))
	var flags byte
	if res.Warm {
		flags |= binResWarm
	}
	return append(buf, flags)
}

func decodeCacheResultBinary(data []byte) (core.Result, error) {
	var res core.Result
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgCacheResult); err != nil {
		return res, err
	}
	parts, err := hypergraph.DecodeInt32s(r, hypergraph.MaxWireVertices)
	if err != nil {
		return res, err
	}
	k, err := r.Varint()
	if err != nil {
		return res, err
	}
	res.Partition = partition.Partition{Parts: parts, K: int(k)}
	if res.CommVolume, err = r.Varint(); err != nil {
		return res, err
	}
	if res.MigrationVolume, err = r.Varint(); err != nil {
		return res, err
	}
	moved, err := r.Varint()
	if err != nil {
		return res, err
	}
	res.Moved = int(moved)
	ns, err := r.Varint()
	if err != nil {
		return res, err
	}
	res.RepartTime = time.Duration(ns)
	flags, err := r.Byte()
	if err != nil {
		return res, err
	}
	res.Warm = flags&binResWarm != 0
	return res, binDone(r)
}

// handoffState is one serialized session crossing replicas at drain time:
// everything a successor needs to continue the epoch sequence
// byte-identically — the effective config, the epoch counter, the last
// result (its partition is the current distribution), the latest migration
// summary, and the base hypergraph the next delta applies against (its
// fingerprint is recomputed during decode, so it cannot drift in transit).
type handoffState struct {
	ID     string
	Config WireConfig
	Epoch  int64
	Last   WireResult
	Mig    *MigrationSummary
	H      *hypergraph.Hypergraph
	FP     string
}

// appendHandoffBinary renders POST /internal/handoff.
func appendHandoffBinary(buf []byte, st handoffState) []byte {
	buf = appendBinHeader(buf, binMsgHandoff)
	buf = appendString(buf, st.ID)
	buf = appendWireConfig(buf, st.Config)
	buf = binary.AppendVarint(buf, st.Epoch)
	buf = appendWireResult(buf, st.Last)
	buf = appendMigrationSummary(buf, st.Mig)
	return st.H.AppendBinary(buf)
}

func decodeHandoffBinary(data []byte) (handoffState, error) {
	var st handoffState
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgHandoff); err != nil {
		return st, err
	}
	var err error
	if st.ID, err = readString(r, 256); err != nil {
		return st, err
	}
	if st.Config, err = readWireConfig(r); err != nil {
		return st, err
	}
	if st.Epoch, err = r.Varint(); err != nil {
		return st, err
	}
	if st.Last, err = readWireResult(r); err != nil {
		return st, err
	}
	if st.Mig, err = readMigrationSummary(r); err != nil {
		return st, err
	}
	if st.H, st.FP, err = hypergraph.DecodeBinary(r); err != nil {
		return st, err
	}
	return st, binDone(r)
}

// appendSessionResponseBinary renders a SessionResponse.
func appendSessionResponseBinary(buf []byte, resp SessionResponse) []byte {
	buf = appendBinHeader(buf, binMsgSessionResponse)
	buf = appendString(buf, resp.SessionID)
	return appendWireResult(buf, resp.Result)
}

// DecodeSessionResponseBinary parses a binary SessionResponse (the client
// side of appendSessionResponseBinary).
func DecodeSessionResponseBinary(data []byte) (SessionResponse, error) {
	var resp SessionResponse
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgSessionResponse); err != nil {
		return resp, err
	}
	var err error
	if resp.SessionID, err = readString(r, 256); err != nil {
		return resp, err
	}
	if resp.Result, err = readWireResult(r); err != nil {
		return resp, err
	}
	return resp, binDone(r)
}

func appendMigrationSummary(buf []byte, m *MigrationSummary) []byte {
	if m == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendVarint(buf, int64(m.Moves))
	buf = binary.AppendVarint(buf, m.TotalVolume)
	buf = binary.AppendVarint(buf, m.MaxOutbound)
	buf = binary.AppendVarint(buf, m.MaxInbound)
	buf = binary.AppendUvarint(buf, uint64(len(m.Volume)))
	for _, row := range m.Volume {
		buf = hypergraph.AppendInt64s(buf, row)
	}
	return buf
}

func readMigrationSummary(r *hypergraph.BinReader) (*MigrationSummary, error) {
	present, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	if present != 1 {
		return nil, fmt.Errorf("%w: migration presence byte %d", hypergraph.ErrMalformed, present)
	}
	m := &MigrationSummary{}
	moves, err := r.Varint()
	if err != nil {
		return nil, err
	}
	m.Moves = int(moves)
	if m.TotalVolume, err = r.Varint(); err != nil {
		return nil, err
	}
	if m.MaxOutbound, err = r.Varint(); err != nil {
		return nil, err
	}
	if m.MaxInbound, err = r.Varint(); err != nil {
		return nil, err
	}
	rows, err := r.Count(1 << 16)
	if err != nil {
		return nil, err
	}
	if rows > 0 {
		m.Volume = make([][]int64, rows)
		for i := range m.Volume {
			row, err := r.Count(1 << 16)
			if err != nil {
				return nil, err
			}
			m.Volume[i] = make([]int64, row)
			for j := range m.Volume[i] {
				if m.Volume[i][j], err = r.Varint(); err != nil {
					return nil, err
				}
			}
		}
	}
	return m, nil
}

// appendPartitionResponseBinary renders a PartitionResponse.
func appendPartitionResponseBinary(buf []byte, resp PartitionResponse) []byte {
	buf = appendBinHeader(buf, binMsgPartitionResponse)
	buf = appendString(buf, resp.SessionID)
	buf = binary.AppendVarint(buf, resp.Epoch)
	buf = binary.AppendVarint(buf, int64(resp.K))
	buf = hypergraph.AppendInt32s(buf, resp.Parts)
	return appendMigrationSummary(buf, resp.Migration)
}

// DecodePartitionResponseBinary parses a binary PartitionResponse.
func DecodePartitionResponseBinary(data []byte) (PartitionResponse, error) {
	var resp PartitionResponse
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgPartitionResponse); err != nil {
		return resp, err
	}
	var err error
	if resp.SessionID, err = readString(r, 256); err != nil {
		return resp, err
	}
	if resp.Epoch, err = r.Varint(); err != nil {
		return resp, err
	}
	k, err := r.Varint()
	if err != nil {
		return resp, err
	}
	resp.K = int(k)
	if resp.Parts, err = hypergraph.DecodeInt32s(r, hypergraph.MaxWireVertices); err != nil {
		return resp, err
	}
	if len(resp.Parts) == 0 {
		resp.Parts = nil
	}
	if resp.Migration, err = readMigrationSummary(r); err != nil {
		return resp, err
	}
	return resp, binDone(r)
}

// appendSessionInfoBinary renders a SessionInfo.
func appendSessionInfoBinary(buf []byte, info SessionInfo) []byte {
	buf = appendBinHeader(buf, binMsgSessionInfo)
	buf = appendString(buf, info.SessionID)
	buf = appendWireConfig(buf, info.Config)
	buf = binary.AppendVarint(buf, info.Epoch)
	buf = binary.AppendVarint(buf, int64(info.HistoryLen))
	buf = binary.AppendVarint(buf, info.TotalCost)
	return appendWireResult(buf, info.Last)
}

// DecodeSessionInfoBinary parses a binary SessionInfo.
func DecodeSessionInfoBinary(data []byte) (SessionInfo, error) {
	var info SessionInfo
	r := hypergraph.NewBinReader(data)
	if err := readBinHeader(r, binMsgSessionInfo); err != nil {
		return info, err
	}
	var err error
	if info.SessionID, err = readString(r, 256); err != nil {
		return info, err
	}
	if info.Config, err = readWireConfig(r); err != nil {
		return info, err
	}
	if info.Epoch, err = r.Varint(); err != nil {
		return info, err
	}
	hl, err := r.Varint()
	if err != nil {
		return info, err
	}
	info.HistoryLen = int(hl)
	if info.TotalCost, err = r.Varint(); err != nil {
		return info, err
	}
	if info.Last, err = readWireResult(r); err != nil {
		return info, err
	}
	return info, binDone(r)
}
