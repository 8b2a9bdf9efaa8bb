package missing

import (
	"math"
	"testing"

	"rfidest/internal/channel"
	"rfidest/internal/tags"
)

// scenario builds an expected inventory of n tags with the given index
// ranges removed (missing), and a session over the remaining present tags.
func scenario(n int, missingFrom, missingTo int, seed uint64) (expected []tags.Tag, missingIDs map[uint64]bool, r *channel.Reader) {
	full := tags.Generate(n, tags.T1, seed)
	expected = full.Tags
	missingIDs = make(map[uint64]bool)
	var present []tags.Tag
	for i, tag := range full.Tags {
		if i >= missingFrom && i < missingTo {
			missingIDs[tag.ID] = true
		} else {
			present = append(present, tag)
		}
	}
	pop := &tags.Population{Tags: present, Dist: full.Dist, Seed: seed}
	return expected, missingIDs, channel.NewReader(channel.NewTagEngine(pop, channel.IdealRN), seed+1)
}

func TestDetectNoMissing(t *testing.T) {
	expected, _, r := scenario(3000, 0, 0, 11)
	res, err := Detect(r, expected, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissingIDs) != 0 {
		t.Fatalf("false accusations: %d", len(res.MissingIDs))
	}
	if res.EstimateCount != 0 {
		t.Fatalf("estimate %v for an intact inventory", res.EstimateCount)
	}
	if res.Coverage < 0.99 {
		t.Fatalf("coverage %v after 8 rounds at n=3000", res.Coverage)
	}
}

func TestDetectIdentifiesMissing(t *testing.T) {
	// 300 of 3000 tags missing; with 8 rounds at w=8192 every expected
	// tag is singleton at least once with overwhelming probability.
	expected, missingIDs, r := scenario(3000, 1000, 1300, 13)
	res, err := Detect(r, expected, Config{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	// No false accusations, ever (perfect channel).
	for _, id := range res.MissingIDs {
		if !missingIDs[id] {
			t.Fatalf("present tag %d convicted", id)
		}
	}
	// Essentially all missing tags identified.
	if len(res.MissingIDs) < 295 {
		t.Fatalf("identified %d of 300 missing tags", len(res.MissingIDs))
	}
	// The count estimate lands near 300.
	if math.Abs(res.EstimateCount-300) > 60 {
		t.Fatalf("estimate %v, want ~300", res.EstimateCount)
	}
}

func TestDetectSortedDeterministicOutput(t *testing.T) {
	expected, _, r := scenario(2000, 100, 200, 17)
	res, err := Detect(r, expected, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.MissingIDs); i++ {
		if res.MissingIDs[i] <= res.MissingIDs[i-1] {
			t.Fatal("missing IDs not strictly ascending")
		}
	}
}

func TestDetectEmptyInventory(t *testing.T) {
	_, _, r := scenario(10, 0, 0, 19)
	res, err := Detect(r, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expected != 0 || res.EstimateCount != 0 || res.Slots != 0 {
		t.Fatalf("empty inventory result: %+v", res)
	}
}

func TestDetectValidation(t *testing.T) {
	expected, _, r := scenario(10, 0, 0, 21)
	if _, err := Detect(nil, expected, Config{}); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, err := Detect(r, expected, Config{Rounds: -1}); err == nil {
		t.Fatal("negative rounds accepted")
	}
}

func TestDetectCostAccounting(t *testing.T) {
	expected, _, r := scenario(1000, 0, 100, 23)
	res, err := Detect(r, expected, Config{Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 4*8192 {
		t.Fatalf("slots = %d", res.Slots)
	}
	if res.Cost.TagSlots != res.Slots {
		t.Fatalf("cost slots %d != %d", res.Cost.TagSlots, res.Slots)
	}
	if res.Seconds <= 0 {
		t.Fatal("no air time accounted")
	}
}

func TestDetectUnderNoiseFalselyConvicts(t *testing.T) {
	// With false-idle noise the detector must start convicting present
	// tags — quantifying why the guarantee needs the perfect channel.
	full := tags.Generate(2000, tags.T1, 29)
	pop := &tags.Population{Tags: full.Tags, Dist: full.Dist, Seed: 29}
	eng := channel.NewNoisyEngine(channel.NewTagEngine(pop, channel.IdealRN), 0, 0.05, 30)
	r := channel.NewReader(eng, 31)
	res, err := Detect(r, full.Tags, Config{Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissingIDs) == 0 {
		t.Fatal("5% false-idle noise produced no false accusations — noise not reaching the detector")
	}
}

func TestDetectPaperXORMode(t *testing.T) {
	full := tags.Generate(2000, tags.T1, 33)
	present := &tags.Population{Tags: full.Tags[200:], Dist: full.Dist, Seed: 33}
	r := channel.NewReader(channel.NewTagEngine(present, channel.PaperXOR), 34)
	res, err := Detect(r, full.Tags, Config{Mode: channel.PaperXOR, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.MissingIDs {
		found := false
		for _, tag := range full.Tags[:200] {
			if tag.ID == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("present tag %d convicted under paper-xor", id)
		}
	}
	if len(res.MissingIDs) < 150 {
		t.Fatalf("identified only %d of 200 under paper-xor", len(res.MissingIDs))
	}
}
