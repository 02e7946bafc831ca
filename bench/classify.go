package main

import (
	"context"
	"fmt"
	"path/filepath"

	"adwars/internal/features"
	"adwars/internal/jsast"
	"adwars/internal/ml"
)

const (
	classifyPath = "/v1/classify"
	scriptType   = "application/javascript"
	scriptBlock  = 32 // scripts per span in the sequential probes
)

// classifyRig trains the headline model on a lab's retrospective corpus,
// ships it as a model snapshot, boots a server on it and learns what a
// correct reply to each held-out live script is from one in-process pass
// through the server's handler. Scripts the server refuses (they do not
// parse) leave the pool: the workload is made of operations that succeed.
func classifyRig(e *env, dir string) (*rig, error) {
	sc, err := buildScriptCorpus(context.Background(), e.Seed, e.LabScale)
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(dir, "model.snap")
	if err := ml.SaveModelSnapshot(modelPath, sc.Model); err != nil {
		return nil, err
	}
	s, n, err := bootServer(servingConfig("", modelPath, ""))
	if err != nil {
		return nil, err
	}
	g := &rig{Path: classifyPath, ContentType: scriptType, Target: n.URL}
	g.Servers = append(g.Servers, s)
	g.closers = append(g.closers, n.stop)
	var kept []string
	for _, src := range sc.Scripts {
		status, reply := inProcess(s.Handler(), classifyPath, scriptType, []byte(src))
		if status != 200 {
			continue
		}
		kept = append(kept, src)
		g.Bodies = append(g.Bodies, []byte(src))
		g.Want = append(g.Want, reply)
	}
	if len(kept) == 0 {
		g.close()
		return nil, fmt.Errorf("classify: the server accepted none of %d scripts", len(sc.Scripts))
	}
	if e.Trace {
		g.Rec = newRecorder(int(e.Seconds/2+1) * 50_000)
		tn, err := serveHandler(g.Rec.wrap(spanHandler, s.Handler()))
		if err != nil {
			g.close()
			return nil, err
		}
		g.closers = append(g.closers, tn.stop)
		g.Traced = tn.URL
	}
	g.layers = func(r *result) { classifyLayers(r, e, kept, sc.Model) }
	return g, nil
}

func runClassifyScripts(_ context.Context, e *env) (*result, error) {
	return runServing(e, func(dir string) (*rig, error) { return classifyRig(e, dir) })
}

// classifyLayers times the three modules a classification crosses, each on
// its own over the script pool: jsast (parse and unpack), features (which
// includes that parse) and ml (project onto the vocabulary and score).
func classifyLayers(r *result, e *env, scripts []string, model *ml.ModelSnapshot) {
	set, err := features.SetFromString(model.FeatureSet)
	if err != nil {
		r.invalidate("model snapshot: %v", err)
		return
	}
	bytes := 0
	sets := make([]map[string]bool, len(scripts))
	for i, src := range scripts {
		bytes += len(src)
		sets[i], _ = features.ExtractSource(src, set) // the server parsed every one of these
	}
	r.set("features.script_bytes", float64(bytes)/float64(len(scripts)), "B")

	ns, _ := timeBlocks(len(scripts), scriptBlock, e.LayerBudget, func(i int) { jsast.ParseAndUnpack(scripts[i]) })
	r.set("jsast.parse_us", ns/1e3, "us")
	ns, _ = timeBlocks(len(scripts), scriptBlock, e.LayerBudget, func(i int) { features.ExtractSource(scripts[i], set) })
	extract := ns / 1e3
	r.set("features.extract_us", extract, "us")
	vocab := features.NewVocab(model.Vocab)
	ns, _ = timeBlocks(len(scripts), scriptBlock, e.LayerBudget, func(i int) { model.Model.Decision(vocab.Project(sets[i])) })
	score := ns / 1e3
	r.set("ml.score_us", score, "us")

	// The handler span belongs to classify here, not to match.
	handler := r.Metrics["serve.handler_ns"].Value / 1e3
	delete(r.Metrics, "serve.handler_ns")
	r.set("serve.classify_handler_us", handler, "us")
	r.set("serve.classify_envelope_us", handler-extract-score, "us")
}
