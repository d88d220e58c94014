//! Runs the complete reproduction — every figure and table — in one
//! pass, printing each and writing all CSVs.
fn main() {
    let ctx = xgomp_bench::parse_args();
    eprintln!(
        "reproducing all experiments: scale={:?} threads={} reps={}",
        ctx.scale, ctx.threads, ctx.reps
    );
    let t = xgomp_bench::experiments::fig01(&ctx);
    t.print();
    t.write_csv(&ctx.out_dir, "fig01").expect("csv");
    print!("{}", xgomp_bench::experiments::fig03(&ctx));
    let (fig4, fig5) = xgomp_bench::experiments::fig04_05(&ctx);
    fig4.print();
    fig4.write_csv(&ctx.out_dir, "fig04").expect("csv");
    fig5.print();
    fig5.write_csv(&ctx.out_dir, "fig05").expect("csv");
    let t = xgomp_bench::experiments::fig06(&ctx);
    t.print();
    t.write_csv(&ctx.out_dir, "fig06").expect("csv");
    let study = xgomp_bench::experiments::dlb_study(&ctx);
    study.table1.print();
    study.table1.write_csv(&ctx.out_dir, "table1").expect("csv");
    study.fig7.print();
    study.fig7.write_csv(&ctx.out_dir, "fig07").expect("csv");
    study.table2.print();
    study.table2.write_csv(&ctx.out_dir, "table2").expect("csv");
    study.table3.print();
    study.table3.write_csv(&ctx.out_dir, "table3").expect("csv");
    let t = xgomp_bench::experiments::fig08(&ctx);
    t.print();
    t.write_csv(&ctx.out_dir, "fig08").expect("csv");
    let t = xgomp_bench::experiments::surface(&ctx, xgomp_core::DlbStrategy::RedirectPush);
    t.print();
    t.write_csv(&ctx.out_dir, "fig09").expect("csv");
    let t = xgomp_bench::experiments::surface(&ctx, xgomp_core::DlbStrategy::WorkSteal);
    t.print();
    t.write_csv(&ctx.out_dir, "fig10").expect("csv");
    let t = xgomp_bench::experiments::table4();
    t.print();
    t.write_csv(&ctx.out_dir, "table4").expect("csv");
    let t = xgomp_bench::experiments::fig11(&ctx);
    t.print();
    t.write_csv(&ctx.out_dir, "fig11").expect("csv");
    eprintln!("done; CSVs in {}", ctx.out_dir.display());
}
