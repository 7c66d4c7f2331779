package snip_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snip"
)

const testDur = 20 * time.Second

func TestGamesAndSchemes(t *testing.T) {
	if len(snip.Games()) != 7 {
		t.Fatalf("games: %v", snip.Games())
	}
	if len(snip.Schemes()) != 5 {
		t.Fatalf("schemes: %v", snip.Schemes())
	}
}

func TestPlayBaseline(t *testing.T) {
	rep, err := snip.Play(snip.Options{Game: "Colorphun", Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheme != snip.SchemeBaseline && rep.Scheme != "" {
		t.Fatalf("scheme %q", rep.Scheme)
	}
	if rep.Events == 0 || rep.EnergyJoules <= 0 || rep.BatteryHours <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	var sum float64
	for _, f := range rep.EnergyBreakdown {
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	if rep.UselessEventFraction <= 0 {
		t.Fatal("no useless events reported")
	}
}

func TestPlayValidation(t *testing.T) {
	if _, err := snip.Play(snip.Options{Game: "Colorphun", Scheme: "warp-speed"}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if _, err := snip.Play(snip.Options{Game: "Colorphun", Scheme: snip.SchemeSNIP}); err == nil {
		t.Fatal("SNIP without table accepted")
	}
	if _, err := snip.Play(snip.Options{Game: "NoGame"}); err == nil {
		t.Fatal("unknown game accepted")
	}
}

func TestFullPipeline(t *testing.T) {
	profile, err := snip.Profile("Greenwall", snip.ProfileOptions{Sessions: 3, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	if profile.Records() == 0 {
		t.Fatal("empty profile")
	}
	ue, uw := profile.UselessFraction()
	if ue <= 0 || uw <= 0 {
		t.Fatal("no useless events in profile")
	}
	table, sel, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	if err != nil {
		t.Fatal(err)
	}
	if table.Rows() == 0 || table.SizeBytes() <= 0 {
		t.Fatal("empty table")
	}
	if sel.SelectedBytes <= 0 || sel.SelectedBytes >= sel.TotalInputBytes {
		t.Fatalf("selection %+v", sel)
	}
	if !strings.Contains(table.SelectionSummary(), "vsync") {
		t.Fatalf("selection summary %q", table.SelectionSummary())
	}

	baseline, err := snip.Play(snip.Options{Game: "Greenwall", Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := snip.Play(snip.Options{
		Game: "Greenwall", Duration: testDur,
		Scheme: snip.SchemeSNIP, Table: table, CheckCorrectness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShortCircuited == 0 || rep.Coverage <= 0 {
		t.Fatal("nothing snipped")
	}
	if rep.SavingVs(baseline) <= 0 {
		t.Fatal("no energy saved")
	}
	if rep.ErrorFields.Predicted == 0 {
		t.Fatal("no fields served")
	}
}

func TestForcedIncludeGrowsSelection(t *testing.T) {
	profile, err := snip.Profile("Colorphun", snip.ProfileOptions{Sessions: 2, Duration: testDur})
	if err != nil {
		t.Fatal(err)
	}
	plain, selPlain, err := snip.BuildTable(profile, snip.DefaultPFIOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := snip.DefaultPFIOptions()
	opts.ForceInclude = []string{"state.score"} // developer marks score necessary
	forced, selForced, err := snip.BuildTable(profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if selForced.SelectedBytes <= selPlain.SelectedBytes {
		t.Fatalf("forced selection %d B not larger than plain %d B",
			selForced.SelectedBytes, selPlain.SelectedBytes)
	}
	_ = plain
	_ = forced
}

func TestIdlePhoneHours(t *testing.T) {
	if h := snip.IdlePhoneHours(); h < 15 || h > 30 {
		t.Fatalf("idle hours %v", h)
	}
}

func TestCloudRoundtrip(t *testing.T) {
	svc := snip.NewCloudServiceWithOptions(snip.DefaultPFIOptions(), snip.CloudServiceOptions{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := snip.NewCloudClient(srv.URL)

	for seed := uint64(0xA1); seed <= 0xA2; seed++ {
		if err := client.RecordAndUpload("MemoryGame", seed, testDur); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Rebuild("MemoryGame"); err != nil {
		t.Fatal(err)
	}
	table, sel, err := client.FetchTable("MemoryGame")
	if err != nil {
		t.Fatal(err)
	}
	if table.Rows() == 0 || sel.SelectedBytes <= 0 {
		t.Fatal("fetched table degenerate")
	}
	rep, err := snip.Play(snip.Options{
		Game: "MemoryGame", Duration: testDur, Scheme: snip.SchemeSNIP, Table: table,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShortCircuited == 0 {
		t.Fatal("OTA table snipped nothing")
	}
}

func TestLearnerConverges(t *testing.T) {
	learner := snip.NewLearner("Colorphun", snip.DefaultPFIOptions(), 200)
	var lastErr, lastCov float64
	for e := 1; e <= 4; e++ {
		er, cov, err := learner.Epoch(uint64(0xB0+e), testDur)
		if err != nil {
			t.Fatal(err)
		}
		lastErr, lastCov = er, cov
	}
	if learner.ProfileRecords() < 500 {
		t.Fatalf("profile only %d records after 4 epochs", learner.ProfileRecords())
	}
	if lastCov <= 0 {
		t.Fatal("no coverage after learning")
	}
	if lastErr > 0.2 {
		t.Fatalf("error rate %v after 4 epochs", lastErr)
	}
}
