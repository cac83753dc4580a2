package hyperbal_test

// TestRemovedNamesStayGone keeps deleted names, files and dependencies
// deleted. Each row of guards is one grep (or test -e, or go list)
// command over the repository, run from its root: a pattern, grep's
// operands and its filters. A row fails when the command would print a
// line. Patterns keep a bracketed character, so no row matches this file;
// the sample lines each row must flag live in testdata/guard_samples.txt
// for the same reason. A change that deletes a name adds a row here and a
// sample there. Run: go test -run TestRemovedNamesStayGone .

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// guard is one check. Its command is
//
//	grep -rnE pattern paths... [--include=include] [--exclude=exclude] | grep -v drop
//
// unless goList or exists says otherwise.
type guard struct {
	name      string   // keys the row's samples in testdata/guard_samples.txt
	removedBy []string // the commits that removed what the row looks for
	why       string   // what the removal left as the one way
	pattern   string   // grep's regular expression; each reads the same in RE2
	paths     []string // grep's operands; "./*.go" is the shell's glob
	include   string   // --include: only files with a matching base name
	exclude   string   // --exclude: no file with a matching base name
	drop      string   // grep -v over each "path:line:text" hit
	spare     string   // grep -P's lookbehind: a hit whose preceding text matches is spared
	goList    string   // match `go list -deps goList` output lines, not files
	exists    bool     // test -e on paths, no pattern
}

var (
	repoGo   = []string{"cmd", "internal", "./*.go"}
	repoDocs = []string{"cmd", "internal", "./*.go", "README.md", "DESIGN.md", ".claude"}
)

var guards = []guard{
	{name: "bench-emitters", removedBy: []string{"509c812"}, why: "numbers come from go run ./bench, not the retired BENCH emitters",
		pattern: `BENCH_repart|BENCH_serve|-bench-json|-parallelism-sweep`,
		paths:   []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "cmd", "internal", ".claude"}},
	{name: "gob", removedBy: []string{"b1aa3ef"}, why: "mpi's typed codec is the one payload path; gob and the payload registry stay gone",
		pattern: `encoding/go[b]|Register[P]ayload`, paths: repoGo, include: "*.go"},
	{name: "json-request", removedBy: []string{"2541539"}, why: "application/x-hyperbal is the one request codec",
		pattern: `decode\w*Request[J]SON|Wire[H]ypergraph|Encode[H]ypergraph|loadgen .*-[w]ire`, paths: repoDocs},
	{name: "mpinet-json", removedBy: []string{"ac53479"}, why: "internal/wire lays out every message",
		pattern: `encoding/jso[n]`, paths: []string{"internal/mpinet"}},
	{name: "unsafe-import", removedBy: []string{"ac53479"}, why: "internal/wire's unsafe cell loops stay its own",
		pattern: `"unsaf[e]"`, paths: repoGo, include: "*.go", drop: `^internal/wire/`},
	{name: "hand-codecs", removedBy: []string{"ac53479"}, why: "no hand-written append/read pairs beside internal/wire",
		pattern: `read[W]ireConfig|append[W]ireResult|read[M]igrationSummary|read[S]ubmissionTail|parse[L]aunch`, paths: repoDocs},
	{name: "lazy-heap", removedBy: []string{"dd2a0c0", "b2788fd"}, why: "the gain tree is the one FM priority structure; the lazy heap and its re-push stash stay gone",
		pattern: `gainHea[p]|popVali[d]|ws\.stas[h]`, paths: []string{"internal/hgp", "internal/gp"}},
	{name: "gp-stash", removedBy: []string{"b2788fd"}, why: "gp selects moves from internal/gaintree; the stash survives only in test oracles",
		pattern: `stas[h]`, paths: []string{"internal/gp"}, include: "*.go", drop: `_test\.go:`},
	{name: "container-heap", removedBy: []string{"b2788fd"}, why: "no non-test file builds a heap; the old kernels are test oracles",
		pattern: `"container/hea[p]"`, paths: []string{"."}, include: "*.go", drop: `_test\.go:`},
	{name: "balancerd-mpinet", removedBy: []string{"2ba503d"}, why: "balancerd serves and hgpart computes: the daemon does not link the compute plane",
		pattern: `^hyperbal/internal/mpine[t](/|$)`, goList: "./cmd/balancerd"},
	{name: "pgp-over-tcp", removedBy: []string{"2ba503d", "8e3b1f5"}, why: "pgp over TCP and balancerd's compute worker stay gone",
		pattern: `compute-worke[r]|PGPPartitio[n]|EncodePG[P]|ParallelRuntimeNe[t]|pgpPayloa[d]`, paths: repoDocs},
	{name: "spmd-knobs", removedBy: []string{"d68fe25"}, why: "the SPMD stack's unset knobs stay constants; readFrame is the one frame reader",
		pattern: `SendWindo[w]|CandidatesPerRoun[d]|MovesPerRoun[d]|RefineRound[s]|PGPOption[s]|pgp\.Option[s]|decodeFram[e]`, paths: repoGo},
	{name: "partitioner-knobs", removedBy: []string{"cee3e37"}, why: "no direct k-way driver, handoff timeout, dynamics parameters or clique bound",
		pattern: `DirectKwa[y]|directKwa[y]|HandoffTimeou[t]|VertexFra[c]|ScaleMi[n]|ScaleMa[x]|MaxCliqu[e]`, paths: repoGo},
	{name: "tuning-fields", removedBy: []string{"cee3e37"}, why: "the tuning fields are the package constants hgp.CoarsenTo and gp.CoarsenTo (and their siblings), not options or config fields",
		pattern: `\.(CoarsenT[o]|InitialStart[s]|RefinePasse[s])\b`, spare: `(\bhgp|\bgp)$`, paths: repoGo},
	{name: "layout-2d", removedBy: []string{"a89bd7c"}, why: "phg replicates H; the 2D hypergraph layout stays gone",
		pattern: `DH2[D]|Distribute2[D]|DistHypergraph2[D]`, paths: repoGo, include: "*.go"},
	{name: "toolkit-dir", removedBy: []string{"2b5aa8f"}, why: "the pruned facade has no callback toolkit behind it",
		paths: []string{"internal/toolkit"}, exists: true},
	{name: "pruned-facade", removedBy: []string{"2b5aa8f"}, why: "no embedded server, application simulator, commstats metrics or mtx graph model behind the facade",
		pattern: `ServeConfi[g]|NewLoadBalance[r]|SimulateApplicatio[n]|CommMatri[x]|CutNetMetri[c]|BoundaryVertice[s]|mtx\.ToGrap[h]`, paths: repoGo},
	{name: "test-only-names", removedBy: []string{"a70d873"}, why: "pgp's scratch mode, the V-cycle wrapper, the test-only collectives and helpers stay gone from every Go file",
		pattern: `PartitionWithVCycle[s]\(|ExclusiveSca[n]|func MinInt6[4]\(|RemapBySize[s]|remapBySize[s]|IsBaseMismatc[h]|SortedRegistryName[s]|FingerprintO[f]|pgp\.Partitio[n]\(|RepartSecond[s]|DroppedTerm[s]|RebalanceWarm\(|NumEntrie[s]\(|tagBarrie[r]|\.Barrie[r]\(`,
		paths:   repoGo, include: "*.go"},
	{name: "coarse-solve-ns", removedBy: []string{"a70d873"}, why: "pgp's coarse solve has no timing family: the inherited partition is its coarse solve",
		pattern: `pgp_coarse_solve_n[s]`, paths: []string{"cmd", "internal", "README.md", "DESIGN.md"}},
	{name: "pgp-partition-func", removedBy: []string{"a70d873"}, why: "pgp is the adaptive repartitioner only; its scratch mode stays gone",
		pattern: `func Partitio[n]\(`, paths: []string{"internal/pgp"}},
	{name: "test-only-funcs", removedBy: []string{"a70d873"}, why: "accessors only tests read live in _test.go files (server's export_test.go)",
		pattern: `func (BuildStore[s]|fitsWeigh[t]|ove[r]|newWorkspac[e])\(|func \(s \*Server\) (Drainin[g]|Session[s]|CacheLe[n])\(|func \(c \*(partitionCach[e]|resultMem[o])\) le[n]\(|func \(s \*Session\) Balance[r]\(|func \(t \*Tree\) To[p]\(|func \(d \*Delta\) Identit[y]\(|func \(h \*Hypergraph\) MaxDegre[e]\(|func \(s \*bisectState\) Mov[e]\(|func \(r Result\) NormalizedCos[t]\(|func \(m \*metric\) ke[y]\(`,
		paths:   []string{"internal"}, include: "*.go", exclude: "*_test.go"},
	{name: "shard-dispatch", removedBy: []string{"2e41c84", "c57fd0a", "7087cc0"}, why: "hgp kernels run one schedule: no intra-level shard dispatch, part-size option or propose-resolve rounds",
		pattern: `kernelShard[s]|shardRang[e]|contractShar[d]|efficiencyPermill[e]|TargetFraction[s]|proposeMove[s]|proposeMatche[s]|ws\.kt[o]|ws\.proposa[l]|ws\.kgai[n]|hgp_kernel_round[s]|hgp_kernel_conflict[s]`,
		paths:   repoGo},
	{name: "kway-fm", removedBy: []string{"7ad5bcf"}, why: "no k-way FM or match-filter switch",
		pattern: `KwayF[M]|DisableMatchFilte[r]|filterFixe[d]|klocke[d]`, paths: repoGo},
	{name: "hgp-consts", removedBy: []string{"7ad5bcf"}, why: "MinShrink and MaxNetSize are constants, not options",
		pattern: `(opt|def)\.(MinShrin[k]|MaxNetSiz[e])`, paths: repoGo},
	{name: "fm2-gain", removedBy: []string{"fd1f46a"}, why: "fm2 and ghg2 read the gain array bisectState.move keeps; no per-neighbour gain recomputation",
		pattern: `s\.gai[n]\(`, paths: []string{"internal/hgp/fm2.go", "internal/hgp/ghg.go"}},
	{name: "movegain", removedBy: []string{"cf07099"}, why: "repairBalance, the localized warm tier and A2's refinement score a vertex's destinations in one pass (KwayState.gains)",
		pattern: `MoveGai[n]\(`, paths: []string{"internal/hgp/warm.go", "internal/hgp/refinemig.go"}},
	{name: "withfixed", removedBy: []string{"cf07099"}, why: "the localized warm tier builds one k-way state per call, no WithFixed view",
		pattern: `WithFixe[d]\(`, paths: []string{"internal/hgp/warm.go"}},
	{name: "adjacentparts", removedBy: []string{"cf07099"}, why: "AdjacentParts survives only as a _test.go oracle",
		pattern: `AdjacentPart[s]\(`, paths: []string{"."}, include: "*.go", exclude: "*_test.go"},
	{name: "fitting-search", removedBy: []string{"c397df5"}, why: "move-fit limits are closed form (bisectState.maxFit); no predicate search over the leaves",
		pattern: `topFittin[g]|\.fittin[g]\(`, paths: []string{"internal/hgp"}},
	{name: "build-maps", removedBy: []string{"476b529"}, why: "graph and hypergraph construction uses counting passes and marker slices, no per-vertex or per-net maps",
		pattern: `ma[p]\[`, paths: []string{"internal/graph/graph.go", "internal/hypergraph/hypergraph.go"}},
	{name: "delta-maps", removedBy: []string{"65a1387"}, why: "the delta epoch path and the canonical encoder match nets without maps; the word boundary skips identifiers such as vmap[i]",
		pattern: `\bma[p]\[`, paths: []string{"internal/hypergraph/delta.go", "internal/hypergraph/fingerprint.go"}},
	{name: "cache-peering", removedBy: []string{"e99adc7"}, why: "no replica asks another for a cache entry; the handoff is the one replica-to-replica path",
		pattern: `internal/cach[e]|PeerTimeou[t]|peer-timeou[t]|server_peer[_]|cacheResul[t]|func \(r \*ring\) owne[r]\(`, paths: repoGo},
	{name: "unread-metrics-partitioners", removedBy: []string{"child of 47c1ba3"}, why: "a family stays only while a bench metric, a test assertion, a CI step or a command's output reads it (TestMetricFamiliesHaveReaders)",
		pattern: `core_comm_volume_tota[l]|core_migration_volume_tota[l]|harness_repart_n[s]|hgp_final_cu[t]|hgp_fm2_passes_tota[l]|hgp_level_shrink_permill[e]|mpi_collective_ops_tota[l]|pgp_coarsen_n[s]|pgp_refine_n[s]|pgp_hem_rounds_tota[l]|pgp_candidates_tota[l]|pgp_refine_proposals_tota[l]|phg_bids_tota[l]|phg_candidates_tota[l]|phg_ipm_rounds_tota[l]|phg_refine_proposals_tota[l]`,
		paths:   repoDocs},
	{name: "unread-metrics-serving", removedBy: []string{"child of 47c1ba3"}, why: "a family stays only while a bench metric, a test assertion, a CI step or a command's output reads it (TestMetricFamiliesHaveReaders)",
		pattern: `gateway_placed_session[s]|gateway_replicas_aliv[e]|gateway_replica_down_tota[l]|server_requests_tota[l]|server_responses_tota[l]|server_rejected_draining_tota[l]|server_sessions_(activ[e]|created_tota[l]|evicted_tota[l]|closed_tota[l])|server_epochs_tota[l]|server_epochs_skipped_tota[l]|server_fault_delay_n[s]|server_delta_bytes_tota[l]|server_delta_fingerprint_mismatches_tota[l]|server_delta_dirty_permill[e]|server_singleflight_retries_tota[l]|server_handoff_(received|failed)_tota[l]`,
		paths:   repoDocs},
	{name: "result-memo", removedBy: []string{"child of 980e28a"}, why: "one memo (internal/server/memo.go) holds pending and done results; no separate cache and flight group",
		pattern: `flightGrou[p]|partitionCach[e]`, paths: repoDocs},
	{name: "session-install", removedBy: []string{"child of 980e28a"}, why: "balancerd keeps a core.Account and drives core.Balancer; core.Session has no serving-only entry points",
		pattern: `NewSessionA[t]|NewSessionWit[h]|Adop[t]\(|RebalanceWarmInherite[d]|HistoryLe[n]|history_le[n]|LastResul[t]\(`, paths: repoDocs},
	{name: "only-if-unbalanced", removedBy: []string{"child of 980e28a"}, why: "every served epoch rebalances; the rebalance trigger is core.Session's alone",
		pattern: `SubmitEpochIfUnbalance[d]|OnlyIfUnbalance[d]|onlyIfUnbalance[d]|only_if_unbalance[d]|\bRebalance[d]\b`, paths: repoDocs},
	{name: "histogram-buckets", removedBy: []string{"child of 47c1ba3"}, why: "a histogram is an atomic (count, sum) pair; every reader takes its sum",
		pattern: `DurationBound[s]|ExpBound[s]|LinBound[s]|BucketSnapsho[t]|_bucke[t]|\bBucket[s]\b`, paths: repoGo},
	{name: "warm-vcycle", removedBy: []string{"child of e02e836"}, why: "the warm path has two tiers: localized refinement, else one call of the cold partitioner; no partition-seeded V-cycle",
		pattern: `vCycl[e]\(|levelViewWithOriginalFixe[d]|warmColdFractio[n]|"vcycl[e]"`, paths: repoGo},
	{name: "bulk-frames", removedBy: []string{"child of cf61472"}, why: "the hypergraph and delta frames are declared structs internal/wire lays out, validated and built by the unexported buildFromWire; balancerd's fault delay is set by tests only",
		pattern: `BinaryFrameVersio[n]|DeltaFrameVersio[n]|binFla[g]|deltaFla[g]|deltaSectio[n]|\bBuildFromWir[e]|fault-max-dela[y]|fault-see[d]`, paths: repoDocs},
	{name: "gateway-placement", removedBy: []string{"child of 528edaa"}, why: "the gateway mints each id onto a least-loaded accepting replica and routes by the id alone: no placement map, bounded loads or caller-assigned ids",
		pattern: `pickBounde[d]|LoadFacto[r]|load-facto[r]|setPlacemen[t]|dropPlacemen[t]|probeSessio[n]`, paths: repoDocs},
	{name: "session-history", removedBy: []string{"child of 29f8df7"}, why: "a session keeps a core.Account (epoch, last result, running total), not every epoch's result",
		pattern: `\.Histor[y]\b|History:? +\[\]Resul[t]`, paths: repoGo},
	{name: "hash-rule", removedBy: []string{"child of d23b308"}, why: "a content id is the SHA-256 of the canonical HBW frame (hbfp2, hbdd2); the tagged fingerprint encoder and its prefixes stay gone",
		pattern: `hbfp[1]:|hbdd[1]:|hyperbal-hg-v[1]|putEncode[r]`, paths: repoDocs},
	{name: "owner-tombstones", removedBy: []string{"child of 3232c39"}, why: "a handed-off session answers 404 at the drained replica and the gateway's ring walk finds it; no forwarding tombstone, owner header or redirect chase",
		pattern: `X-Hyperbal-Owne[r]|OwnerHeade[r]|handoffOwne[r]|recordHandof[f]|clearHandof[f]|replicaInde[x]|server_owner_redirects_tota[l]|client_owner_redirects_tota[l]`,
		paths:   repoGo},
}

func TestRemovedNamesStayGone(t *testing.T) {
	samples := readGuardSamples(t)
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			if len(samples[g.name]) == 0 {
				t.Fatal("no sample in testdata/guard_samples.txt")
			}
			for _, s := range samples[g.name] {
				if got := g.reports(s.line); got != s.flag {
					t.Errorf("sample from %s: reported %v, want %v: %s", s.commit, got, s.flag, s.line)
				}
			}
			hits, err := g.scan()
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) > 0 {
				shown := hits[:min(len(hits), 10)]
				t.Errorf("%d hits of what %s removed (%s):\n%s", len(hits), strings.Join(g.removedBy, ", "), g.why, strings.Join(shown, "\n"))
			}
		})
	}
	for name := range samples {
		if !slices.ContainsFunc(guards, func(g guard) bool { return g.name == name }) {
			t.Errorf("testdata/guard_samples.txt names no row %q", name)
		}
	}
}

type guardSample struct {
	commit string
	flag   bool
	line   string
}

func readGuardSamples(t *testing.T) map[string][]guardSample {
	t.Helper()
	data, err := os.ReadFile("testdata/guard_samples.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string][]guardSample{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, "\t", 4)
		if len(f) != 4 || (f[2] != "flag" && f[2] != "spare") {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[f[0]] = append(samples[f[0]], guardSample{commit: f[1], flag: f[2] == "flag", line: f[3]})
	}
	return samples
}

// reports says whether the row prints line: a "path:line:text" hit for a
// grep row, an output line for the go list row, a path for the test -e
// row.
func (g guard) reports(line string) bool {
	switch {
	case g.exists:
		for _, p := range g.paths {
			if line == p {
				return true
			}
		}
		return false
	case g.goList != "":
		return g.matches(line)
	}
	path, rest, ok1 := strings.Cut(line, ":")
	_, text, ok2 := strings.Cut(rest, ":")
	return ok1 && ok2 && g.admits(path) && g.matches(text) && !g.dropped(line)
}

// admits says whether the row's operands and filters reach path, spelled
// as grep prints it.
func (g guard) admits(path string) bool {
	base := filepath.Base(path)
	if g.include != "" && !globMatch(g.include, base) || g.exclude != "" && globMatch(g.exclude, base) {
		return false
	}
	for _, op := range g.paths {
		if strings.Contains(op, "*") && globMatch(op, path) || path == op || strings.HasPrefix(path, op+"/") {
			return true
		}
	}
	return false
}

func globMatch(pattern, name string) bool {
	ok, err := filepath.Match(pattern, name)
	return ok && err == nil
}

// matches says whether text holds a match of the pattern that the spare
// expression does not rule out.
func (g guard) matches(text string) bool {
	if g.spare == "" {
		return compiled(g.pattern).MatchString(text)
	}
	for _, m := range compiled(g.pattern).FindAllStringIndex(text, -1) {
		if !compiled(g.spare).MatchString(text[:m[0]]) {
			return true
		}
	}
	return false
}

func (g guard) dropped(hit string) bool {
	return g.drop != "" && compiled(g.drop).MatchString(hit)
}

var regexps = map[string]*regexp.Regexp{}

func compiled(expr string) *regexp.Regexp {
	re, ok := regexps[expr]
	if !ok {
		re = regexp.MustCompile(expr)
		regexps[expr] = re
	}
	return re
}

// scan runs the row's command in the working directory and returns what it
// would print, each line decided by reports. A missing operand prints
// nothing, as grep's does.
func (g guard) scan() ([]string, error) {
	var hits []string
	switch {
	case g.exists:
		for _, p := range g.paths {
			if _, err := os.Stat(p); err == nil && g.reports(p) {
				hits = append(hits, p)
			}
		}
		return hits, nil
	case g.goList != "":
		out, err := exec.Command("go", "list", "-deps", g.goList).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -deps %s: %w", g.goList, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if g.reports(line) {
				hits = append(hits, line)
			}
		}
		return hits, nil
	}
	grepFile := func(path string) error {
		if !g.admits(path) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil || !compiled(g.pattern).Match(data) {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if hit := fmt.Sprintf("%s:%d:%s", path, i+1, line); g.reports(hit) {
				hits = append(hits, hit)
			}
		}
		return nil
	}
	for _, op := range g.paths {
		files := []string{op}
		if strings.Contains(op, "*") {
			files, _ = filepath.Glob(op)
			if strings.HasPrefix(op, "./") {
				for i := range files {
					files[i] = "./" + files[i] // the shell keeps the operand's "./"
				}
			}
		}
		for _, f := range files {
			info, err := os.Stat(f)
			if err != nil {
				continue
			}
			if !info.IsDir() {
				if err := grepFile(f); err != nil {
					return nil, err
				}
				continue
			}
			// grep -r: every regular file below, symbolic links not followed.
			err = filepath.WalkDir(f, func(path string, d fs.DirEntry, err error) error {
				if err != nil || !d.Type().IsRegular() {
					return err
				}
				if f == "." {
					path = "./" + path // grep keeps the operand's "./"; WalkDir drops it
				}
				return grepFile(path)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return hits, nil
}

// TestMetricFamiliesHaveReaders keeps every registered metric family read.
// A family stays only while a bench/ metric, a test asserting its value, a
// CI step or a command's printed output reads it; schema goldens and the
// family lists in DESIGN.md and README.md do not count. Each family
// registered in non-test Go has one row naming its reader: a file and a
// token that file must contain (the family name, or the handle read).
// ROADMAP.md rows are readers a planned bench row will be. The test fails
// on a family with no row, a row with no family, or a reader that no
// longer names its token. Run: go test -run TestMetricFamiliesHaveReaders .
func TestMetricFamiliesHaveReaders(t *testing.T) {
	const bench, loadgen = "bench/measure.go", "cmd/loadgen/main.go"
	readers := []struct{ family, file, token string }{
		{"client_retries_total", bench, "client_retries_total"},
		{"client_bytes_sent_total", loadgen, `localCounter("client_bytes_sent_total"`},
		{"client_delta_fallbacks_total", bench, "client_delta_fallbacks_total"},
		{"loadgen_epochs_ok_total", "cmd/loadgen/main_test.go", "lgEpochsOK.Load()"},
		{"loadgen_epochs_cached_total", loadgen, "lgCached.Load()"},
		{"loadgen_epochs_dropped_total", "cmd/loadgen/main_test.go", "lgDropped.Load()"},
		{"server_request_ns", bench, "server_request_ns"},
		{"server_inflight_epochs", "internal/server/schema_test.go", "server_inflight_epochs"},
		{"server_queue_depth", "internal/server/schema_test.go", "server_queue_depth"},
		{"server_rejected_busy_total", bench, "server_rejected_busy_total"},
		{"server_cache_hits_total", bench, "server_cache_hits_total"},
		{"server_cache_misses_total", bench, "server_cache_misses_total"},
		{"server_cache_entries", "internal/server/schema_test.go", "server_cache_entries"},
		{"server_delta_epochs_total", "cmd/loadgen/main_test.go", "server_delta_epochs_total"},
		{"server_epoch_warm_ns", bench, "server_epoch_warm_ns"},
		{"server_epoch_cold_ns", bench, "server_epoch_cold_ns"},
		{"server_wire_rx_bytes_total", bench, "server_wire_rx_bytes_total"},
		{"server_wire_tx_bytes_total", bench, "server_wire_tx_bytes_total"},
		{"server_codec_ns", bench, "server_codec_ns"},
		{"server_singleflight_leaders_total", "cmd/loadgen/main_test.go", "server_singleflight_leaders_total"},
		{"server_singleflight_shared_total", loadgen, `counterDiff(before, snap, "server_singleflight_shared_total")`},
		{"server_handoff_sessions_total", "internal/server/gateway_test.go", "server_handoff_sessions_total"},
		{"gateway_retargets_total", loadgen, `counterDiff(before, snap, "gateway_retargets_total")`},
		{"mpinet_frames_total", ".github/workflows/ci.yml", "mpinet_frames_total"},
		{"mpinet_bytes_total", bench, "mpinet_bytes_total"},
		{"phg_coarsen_ns", "ROADMAP.md", "phg_coarsen_ns"},
		{"phg_coarse_solve_ns", "ROADMAP.md", "phg_coarse_solve_ns"},
		{"phg_refine_ns", "ROADMAP.md", "phg_refine_ns"},
		{"phg_coarse_solve_serialized_total", "internal/phg/options_test.go", "obsOversubGuarded.Load()"},
		{"mpi_messages_total", bench, "mpi_messages_total"},
		{"mpi_bytes_total", bench, "mpi_bytes_total"},
		{"mpi_collectives_total", bench, "mpi_collectives_total"},
		{"hgp_coarsen_levels_total", bench, "hgp_coarsen_levels_total"},
		{"hgp_coarsen_ns", bench, "hgp_coarsen_ns"},
		{"hgp_coarse_solve_ns", bench, "hgp_coarse_solve_ns"},
		{"hgp_refine_ns", bench, "hgp_refine_ns"},
		{"hgp_kway_polish_ns", bench, "hgp_kway_polish_ns"},
		{"hgp_fm2_moves_total", bench, "hgp_fm2_moves_total"},
		{"hgp_kway_passes_total", bench, "hgp_kway_passes_total"},
		{"hgp_kway_moves_total", bench, "hgp_kway_moves_total"},
		{"hgp_kernel_worker_items_total", bench, "hgp_kernel_worker_items_total"},
		{"hgp_warm_partitions_total", bench, "hgp_warm_partitions_total"},
		{"hgp_warm_partition_ns", bench, "hgp_warm_partition_ns"},
		{"core_repart_ns", bench, "core_repart_ns"},
	}

	registration := regexp.MustCompile(`\.(Counter|Gauge|Histogram)(Vec)?\("([a-z0-9_]+)"`)
	registered := map[string]string{} // family -> a file registering it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		for _, m := range registration.FindAllSubmatch(data, -1) {
			registered[string(m[3])] = path
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := map[string]bool{}
	for _, r := range readers {
		if rows[r.family] {
			t.Errorf("%s: two rows", r.family)
		}
		rows[r.family] = true
		if _, ok := registered[r.family]; !ok {
			t.Errorf("%s: a row, but no non-test Go file registers the family", r.family)
		}
		if r.file == "README.md" || r.file == "DESIGN.md" || strings.HasSuffix(r.file, "_schema.json") {
			t.Errorf("%s: %s lists families; it reads none", r.family, r.file)
			continue
		}
		data, err := os.ReadFile(r.file)
		if err != nil {
			t.Errorf("%s: reader %v", r.family, err)
		} else if !strings.Contains(string(data), r.token) {
			t.Errorf("%s: reader %s no longer contains %s", r.family, r.file, r.token)
		}
	}
	for family, path := range registered {
		if !rows[family] {
			t.Errorf("%s (registered in %s): no reader row; a family nothing reads goes", family, path)
		}
	}
}
